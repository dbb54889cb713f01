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
// split budget — its lockstep's one lane a DFA walker iff a shard kept a
// DFA, a kernel stepped (beside the walker or alone) iff a state is left to
// one, some shard, on some case, holding both tiers, and on some case a
// walker over several shards' DFAs stepping bytes — and three workers
// each unsealing one shard of the tiered K = 3 form, merged as a frontend
// merges them.
func TestSpine(t *testing.T) {
	twoTiers, bytesSharded := false, false
	build := func(t testing.TB, c *simtest.Case, k int, tier bool) (*shard.Sharded, *shard.Sealed) {
		opts := shard.Options{Shards: k}
		if tier {
			opts.Tier = &dfa.TierOptions{MinStateShare: -1, CCMaxStates: c.SplitBudget(t)}
		}
		sealed, _, err := shard.Partition(c.NFA, opts)
		if err != nil {
			t.Fatal(err)
		}
		s, err := shard.Unseal(c.NFA, sealed)
		if err != nil {
			t.Fatal(err)
		}
		kernel, ln := s.NFATierStates() > 0, s.Lane()
		var w *dfa.Core
		if ln.New != nil {
			w, _ = ln.New().(*dfa.Core)
		}
		switch {
		case (w != nil) != (s.TieredShards() > 0):
			t.Fatalf("%s, %d shards (tiered %t): the lane walks DFAs %t, with %d shards holding one", c.Name, k, tier, w != nil, s.TieredShards())
		case w != nil && w.HasKernel() != kernel:
			t.Fatalf("%s, %d shards (tiered %t): the walker steps a kernel %t, with %d states left to one", c.Name, k, tier, w.HasKernel(), s.NFATierStates())
		case w == nil && (ln.New != nil) != kernel:
			t.Fatalf("%s, %d shards (tiered %t): a kernel lane %t, with %d states left to one", c.Name, k, tier, ln.New != nil, s.NFATierStates())
		}
		for _, st := range sealed.Tiers {
			twoTiers = twoTiers || st != nil && st.DFA != nil && st.Plan.NFAStates > 0
		}
		if w != nil && k > 1 && s.TieredShards() > 1 {
			bits, _ := w.Geometry()
			bytesSharded = bytesSharded || bits == 8 && c.NFA.Bits < 8
		}
		return s, sealed
	}
	var rows []simtest.Row
	for _, k := range []int{1, 2, 3, 8} {
		for _, tier := range []bool{false, true} {
			rows = append(rows, simtest.Row{Name: fmt.Sprintf("%d shards, tiered %t", k, tier), Build: func(t testing.TB, c *simtest.Case) (simtest.Form, bool) {
				s, _ := build(t, c, k, tier)
				return simtest.SessionForm(s.NewSession, s.AppendRun), true
			}})
		}
	}
	rows = append(rows, simtest.Row{Name: "3 workers of one shard each, tiered, merged", Build: func(t testing.TB, c *simtest.Case) (simtest.Form, bool) {
		_, sealed := build(t, c, 3, true)
		var workers []simtest.Form
		for i := 0; i < 3; i++ {
			w, err := shard.UnsealShards(c.NFA, sealed, []int{i})
			if err != nil {
				t.Fatal(err)
			}
			workers = append(workers, simtest.SessionForm(w.NewSession, w.AppendRun))
		}
		return simtest.Merged(workers...), true
	}})
	simtest.Spine(t, rows...)
	if !twoTiers {
		t.Error("no shard held both a DFA and a kernel tier; the walker with a kernel beside it went unexercised")
	}
	if !bytesSharded {
		t.Error("no walker over two shards' DFAs stepped bytes; one class map across shards went unexercised")
	}
}
