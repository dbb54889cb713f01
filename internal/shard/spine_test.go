package shard_test

import (
	"fmt"
	"testing"

	"impala/internal/dfa"
	"impala/internal/shard"
	"impala/internal/sim/simtest"
)

// This package's rows of the differential spine (simtest.Spine): the sharded
// form at K = 1, 2, 3 and 8, untiered and tiered per shard at the case's
// split budget — its lockstep holding one walker lane iff a shard kept a DFA
// and one kernel lane iff a state is left to a kernel, and some shard, on
// some case, holding both tiers — and three workers each unsealing one shard
// of the tiered K = 3 form, merged as a frontend merges them.
func TestSpine(t *testing.T) {
	twoTiers := false
	build := func(t testing.TB, c *simtest.Case, k int, tier bool) *shard.Sharded {
		opts := shard.Options{Shards: k}
		if tier {
			opts.Tier = &dfa.TierOptions{MinStateShare: -1, CCMaxStates: c.SplitBudget(t)}
		}
		s, err := shard.Build(c.NFA, opts)
		if err != nil {
			t.Fatal(err)
		}
		lanes := 0
		for _, on := range []bool{s.TieredShards() > 0, s.NFATierStates() > 0} {
			if on {
				lanes++
			}
		}
		if len(s.Lanes()) != lanes {
			t.Fatalf("%s, %d shards (tiered %t): %d lanes, the shards' tiers call for %d", c.Name, k, tier, len(s.Lanes()), lanes)
		}
		for _, st := range s.Seal().Tiers {
			twoTiers = twoTiers || st != nil && st.DFA != nil && st.Plan.NFAStates > 0
		}
		return s
	}
	var rows []simtest.Row
	for _, k := range []int{1, 2, 3, 8} {
		for _, tier := range []bool{false, true} {
			rows = append(rows, simtest.Row{Name: fmt.Sprintf("%d shards, tiered %t", k, tier), Build: func(t testing.TB, c *simtest.Case) (simtest.Form, bool) {
				s := build(t, c, k, tier)
				return simtest.SessionForm(s.NewSession, s.Run), true
			}})
		}
	}
	rows = append(rows, simtest.Row{Name: "3 workers of one shard each, tiered, merged", Build: func(t testing.TB, c *simtest.Case) (simtest.Form, bool) {
		sealed := build(t, c, 3, true).Seal()
		var workers []simtest.Form
		for i := 0; i < 3; i++ {
			w, err := shard.UnsealShards(c.NFA, sealed, []int{i})
			if err != nil {
				t.Fatal(err)
			}
			workers = append(workers, simtest.SessionForm(w.NewSession, w.Run))
		}
		return simtest.Merged(workers...), true
	}})
	simtest.Spine(t, rows...)
	if !twoTiers {
		t.Error("no shard held both a DFA and a kernel tier; the two-lane sharded form went unexercised")
	}
}
