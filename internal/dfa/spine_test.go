package dfa_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"impala/internal/automata"
	"impala/internal/dfa"
	"impala/internal/sim"
	"impala/internal/sim/simtest"
)

// This package's rows of the differential spine (simtest.Spine): the tiered
// form at the default budget and at the case's split budget — under which,
// on some case, the DFA tier and the kernel both hold components — and the
// walker over K DFAs as one lane, the components dealt round-robin onto K
// determinizations, K odd and even.
func TestSpine(t *testing.T) {
	bothTiers := false
	var rows []simtest.Row
	for _, name := range []string{"tiered", "tiered, split budget"} {
		rows = append(rows, simtest.Row{Name: name, Build: func(t testing.TB, c *simtest.Case) (simtest.Form, bool) {
			opts := dfa.TierOptions{MinStateShare: -1}
			if name != "tiered" {
				opts.CCMaxStates = c.SplitBudget(t)
			}
			tf, err := dfa.BuildTiered(c.NFA, opts)
			if err != nil {
				t.Fatal(err)
			}
			bothTiers = bothTiers || tf.DFA() != nil && len(tf.NFAStateIDs()) > 0
			return simtest.SessionForm(tf.NewSession, tf.Run), true
		}})
	}
	for _, k := range []int{1, 2, 3, 5} {
		rows = append(rows, simtest.Row{Name: fmt.Sprintf("walker over %d DFAs", k), Build: func(t testing.TB, c *simtest.Case) (simtest.Form, bool) {
			return walker(t, c.NFA, k)
		}})
	}
	simtest.Spine(t, rows...)
	if !bothTiers {
		t.Error("no tiered form kept both tiers; the two-lane tiered form went unexercised")
	}
}

// walker deals n's components onto k DFAs walked as one lane; it does not
// apply when n has fewer than k components or one of the k determinizations
// outgrows 1,024 states.
func walker(t testing.TB, n *automata.NFA, k int) (simtest.Form, bool) {
	ccs := n.ConnectedComponents()
	if len(ccs) < k {
		return simtest.Form{}, false
	}
	origs := make([][]automata.StateID, k)
	for i, cc := range ccs {
		origs[i%k] = append(origs[i%k], cc...)
	}
	ds := make([]*dfa.DFA, k)
	for i, ids := range origs {
		slices.Sort(ids)
		d, err := dfa.Build(n.Induced(ids), dfa.Options{MaxStates: 1024, Workers: 1})
		if errors.Is(err, dfa.ErrStateBlowup) {
			return simtest.Form{}, false
		}
		if err != nil {
			t.Fatal(err)
		}
		ds[i] = d
	}
	l := sim.NewLockstep(n.Bits, n.Stride, []sim.Lane{dfa.Lane(ds, origs)})
	return simtest.SessionForm(l.NewSession, l.Run), true
}
