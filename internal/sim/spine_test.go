package sim_test

import (
	"slices"
	"testing"

	"impala/internal/automata"
	"impala/internal/sim"
	"impala/internal/sim/simtest"
)

// This package's rows of the differential spine (simtest.Spine): the scalar
// engine itself behind a session, the kernel, and the lockstep combinator
// handing its one lane whole blocks and stepping up to three lanes (the
// components dealt round-robin) cycle by cycle.
func TestSpine(t *testing.T) {
	if got := simtest.FeedBlock(); got != 2048 {
		t.Fatalf("a session hands its core %d-byte blocks, want 2048", got)
	}
	simtest.Spine(t,
		simtest.Row{Name: "scalar engine, streamed", Build: func(t testing.TB, c *simtest.Case) (simtest.Form, bool) {
			e, err := sim.NewEngine(c.NFA)
			if err != nil {
				t.Fatal(err)
			}
			return simtest.Form{Open: func(sink sim.ReportSink) simtest.Stream { return sim.NewSession(e, sink) }}, true
		}},
		simtest.Row{Name: "kernel", Build: func(t testing.TB, c *simtest.Case) (simtest.Form, bool) {
			k := compile(t, c.NFA)
			return simtest.SessionForm(k.NewSession, k.Run), true
		}},
		simtest.Row{Name: "lockstep, one lane", Build: func(t testing.TB, c *simtest.Case) (simtest.Form, bool) {
			l := lockstep(t, c.NFA, 1)
			return simtest.SessionForm(l.NewSession, l.Run), true
		}},
		simtest.Row{Name: "lockstep, up to three lanes", Build: func(t testing.TB, c *simtest.Case) (simtest.Form, bool) {
			l := lockstep(t, c.NFA, 3)
			open := func(sink sim.ReportSink) simtest.Stream { return sim.NewSession(l.NewCore(), sink) }
			return simtest.Form{Open: open, Run: l.Run}, len(l.Lanes()) > 1
		}},
	)
}

func compile(t testing.TB, n *automata.NFA) *sim.Compiled {
	c, err := sim.Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// lockstep is the lockstep form of n's components dealt onto up to k
// kernels.
func lockstep(t testing.TB, n *automata.NFA, k int) *sim.Lockstep {
	ccs := n.ConnectedComponents()
	blocks := make([][]automata.StateID, min(k, len(ccs)))
	for i, cc := range ccs {
		blocks[i%len(blocks)] = append(blocks[i%len(blocks)], cc...)
	}
	var lanes []sim.Lane
	for _, ids := range blocks {
		slices.Sort(ids)
		kernel := compile(t, n.Induced(ids))
		lanes = append(lanes, sim.Lane{New: func() sim.Core { return kernel.NewEngine() }, Orig: ids})
	}
	return sim.NewLockstep(n.Bits, n.Stride, lanes)
}
