package sim_test

import (
	"bytes"
	"testing"

	"impala/internal/automata"
	"impala/internal/bitvec"
	"impala/internal/sim"
	"impala/internal/sim/simtest"
)

// This package's rows of the differential spine (simtest.Spine): the scalar
// engine itself behind a session, the kernel, and the lockstep shell handing
// its lane whole blocks.
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
			return simtest.SessionForm(k.NewSession, k.AppendRun), true
		}},
		simtest.Row{Name: "lockstep", Build: func(t testing.TB, c *simtest.Case) (simtest.Form, bool) {
			l := lockstep(t, c.NFA)
			return simtest.SessionForm(l.NewSession, l.AppendRun), true
		}},
	)
}

// The spine's quiescent case runs the kernel's skip: it keeps its admitted
// tuples, and its input holds cycles the kernel skips (counted by a tracer,
// which itself turns the skip off), after the first and on both parities.
func TestSpineSkips(t *testing.T) {
	for _, c := range simtest.Cases(t) {
		if c.Name != simtest.QuietCase {
			continue
		}
		k := compile(t, c.NFA)
		if !k.Skips() {
			t.Fatalf("%s: the kernel keeps no admitted tuples", c.Name)
		}
		var q quiescent
		k.NewEngine().Run(c.Input, &q)
		if q.parity[0] == 0 || q.parity[1] == 0 {
			t.Fatalf("%s: quiescent cycles by parity %v, want some of each", c.Name, q.parity)
		}
		return
	}
	t.Fatalf("no spine case %q", simtest.QuietCase)
}

// quiescent counts by parity the cycles the kernel skips: past the first,
// after a cycle that left nothing active, leaving nothing active.
type quiescent struct {
	parity [2]int
	was    bool
}

func (q *quiescent) OnCycle(t int, _, active bitvec.Words) {
	is := active.Any()
	if t > 0 && !q.was && !is {
		q.parity[t&1]++
	}
	q.was = is
}

// The kernel and the lockstep form, each on its pool, allocate nothing once
// warm (simtest.AllocFree): not per Feed, not per Append of reports into a
// buffer with room, not per Run of an input that reports nothing.
func TestPooledFormsAllocFree(t *testing.T) {
	n := automata.New(8, 1)
	n.AddLiteral("needle in a", automata.StartAllInput, 1)
	n.AddLiteral("^haystack", automata.StartOfData, 2)
	hit, quiet := []byte("haystack: one needle in a stack, a needle in a"), bytes.Repeat([]byte("no match here. "), 300)
	k, l := compile(t, n), lockstep(t, n)
	for name, f := range map[string]simtest.Form{"kernel": simtest.SessionForm(k.NewSession, k.AppendRun), "lockstep": simtest.SessionForm(l.NewSession, l.AppendRun)} {
		t.Run(name, func(t *testing.T) { simtest.AllocFree(t, f, hit, quiet) })
	}
}

func compile(t testing.TB, n *automata.NFA) *sim.Compiled {
	c, err := sim.Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// lockstep is the lockstep form of n on one kernel lane.
func lockstep(t testing.TB, n *automata.NFA) *sim.Lockstep {
	kernel := compile(t, n)
	orig := make([]automata.StateID, n.NumStates())
	for i := range orig {
		orig[i] = automata.StateID(i)
	}
	return sim.NewLockstep(n.Bits, n.Stride, sim.Lane{New: func() sim.Core { return kernel.NewEngine() }, Orig: orig})
}
