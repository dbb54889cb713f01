package sim_test

import (
	"bytes"
	"strings"
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

// The kernel's successor OR does what its start images promise, on every
// spine case: on each cycle a lane watches, it ORed rows exactly when the
// states the previous cycle left active have a successor and either that
// cycle did not look its start vector up, or some of them were carried (not
// hit by the start vector), or some successor accepts the cycle's symbols at
// every position of the cycle. The kernel must look its start vectors up on
// the quiescent and the shared-word cases, at 4-bit × 4 and at 8-bit × 1
// with an even start vector, and not on the residual start; on the
// shared-word cases the image path must have run — skipped the OR of a cycle
// whose previous one had successors. The quiescent case also skips
// cycles (counted by a tracer, which itself turns the lookup off), after the
// first and on both parities.
func TestSpineSkips(t *testing.T) {
	seen := 0
	for _, c := range simtest.Cases(t) {
		k := compile(t, c.NFA)
		skipped := successorSkips(t, c, k)
		image := c.Name == simtest.QuietCase || strings.HasPrefix(c.Name, simtest.ImageCase)
		switch {
		case c.Name == simtest.ResidualStartCase && k.LooksUp():
			t.Fatalf("%s: the kernel looks up a start vector that holds a residual state", c.Name)
		case image && !k.LooksUp():
			t.Fatalf("%s: the kernel sweeps its start vectors", c.Name)
		case strings.HasPrefix(c.Name, simtest.ImageCase) && skipped == 0:
			t.Fatalf("%s: the kernel skipped no successor OR", c.Name)
		case (c.Name == simtest.QuietCase || c.Name == simtest.ImageCase+" 8-bit x 1") && !k.StartsDiffer():
			t.Fatalf("%s: the odd and the even start vector are one", c.Name)
		}
		if image || c.Name == simtest.ResidualStartCase {
			seen++
		}
		if c.Name != simtest.QuietCase {
			continue
		}
		var q quiescent
		k.NewEngine().Run(c.Input, &q)
		if q.parity[0] == 0 || q.parity[1] == 0 {
			t.Fatalf("%s: quiescent cycles by parity %v, want some of each", c.Name, q.parity)
		}
	}
	if seen != 5 {
		t.Fatalf("%d of the quiescent, shared-word and residual-start cases, want 5", seen)
	}
}

// successorSkips runs c on k's kernel with a lane that holds every cycle's
// successor OR to the rule TestSpineSkips states, and returns how many
// cycles skipped it although the previous cycle's states had successors.
func successorSkips(t *testing.T, c *simtest.Case, k *sim.Compiled) int {
	n, e := c.NFA, k.NewEngine()
	_, units := e.Geometry()
	S := n.Stride
	subs := sim.AppendSubSymbols(nil, n.Bits, c.Input)
	for len(subs)%S != 0 {
		subs = append(subs, 0)
	}
	// accepts reports whether state i accepts the cycle's sub-symbols at
	// kernel position q: a residual state at any.
	accepts := func(i, q int, syms []byte) bool {
		if k.Residual(i) {
			return true
		}
		for p := q * S / units; p < (q+1)*S/units; p++ {
			ok := false
			for _, r := range n.States[i].Match {
				ok = ok || !r.Empty() && r[p].Has(syms[p])
			}
			if !ok {
				return false
			}
		}
		return true
	}
	skipped := 0
	e.SetLane(func(cycle int) {
		var succ []int
		allHit := true
		starts := e.Starts(cycle - 1)
		e.PrevActive().ForEach(func(i int) {
			allHit = allHit && starts.Get(i)
			for _, s := range n.States[i].Out {
				succ = append(succ, int(s))
			}
		})
		syms := subs[cycle*S:][:S]
		accepted := true
		for q := range units {
			any := false
			for _, s := range succ {
				any = any || accepts(s, q, syms)
			}
			accepted = accepted && any
		}
		looked := k.LooksUp() && cycle > 1
		want := len(succ) > 0 && (!looked || !allHit || accepted)
		if got := e.Rowed(); got != want {
			t.Fatalf("%s: cycle %d ORed successor rows: %v, want %v (%d successors, all hit %v, accepted %v)",
				c.Name, cycle, got, want, len(succ), allHit, accepted)
		}
		if len(succ) > 0 && !want {
			skipped++
		}
	})
	s := sim.NewSession(e, nil)
	s.Feed(c.Input)
	s.Flush()
	return skipped
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
