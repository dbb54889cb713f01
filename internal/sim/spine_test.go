package sim_test

import (
	"bytes"
	"math/bits"
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
// the quiescent, the shared-word and the seam cases, at 4-bit × 4 and at
// 8-bit × 1 with an even start vector, and not on the residual start; on the
// shared-word cases the image path must have run — skipped the OR of a cycle
// whose previous one had successors. Each of those cases must also have
// cycles the kernel steps by image number (imageRuns), and on the seam cases
// a run must span each block seam and end at a cycle that reports. The
// quiescent case also has cycles that leave nothing active after a cycle
// that left nothing (counted by a tracer, which itself turns the lookup
// off), after the first and on both parities.
func TestSpineSkips(t *testing.T) {
	seen := 0
	for _, c := range simtest.Cases(t) {
		k := compile(t, c.NFA)
		skipped := successorSkips(t, c, k)
		seamed := strings.HasPrefix(c.Name, simtest.SeamRunCase)
		image := c.Name == simtest.QuietCase || strings.HasPrefix(c.Name, simtest.ImageCase) || seamed
		runs := newImageRuns(c, k)
		k.NewEngine().Run(c.Input, runs)
		switch {
		case c.Name == simtest.ResidualStartCase && k.LooksUp():
			t.Fatalf("%s: the kernel looks up a start vector that holds a residual state", c.Name)
		case image && !k.LooksUp():
			t.Fatalf("%s: the kernel sweeps its start vectors", c.Name)
		case strings.HasPrefix(c.Name, simtest.ImageCase) && skipped == 0:
			t.Fatalf("%s: the kernel skipped no successor OR", c.Name)
		case (c.Name == simtest.QuietCase || c.Name == simtest.ImageCase+" 8-bit x 1") && !k.StartsDiffer():
			t.Fatalf("%s: the odd and the even start vector are one", c.Name)
		case image && runs.count == 0:
			t.Fatalf("%s: no cycle is stepped by image number", c.Name)
		case seamed && runs.seams == 0:
			t.Fatalf("%s: no run spans a block seam", c.Name)
		case seamed && runs.seams != runs.reported:
			t.Fatalf("%s: %d runs span a block seam, %d of them end at a cycle that reports", c.Name, runs.seams, runs.reported)
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
	if seen != 7 {
		t.Fatalf("%d of the quiescent, shared-word, seam and residual-start cases, want 7", seen)
	}
}

// cycleRule is what the automaton of a case does on each of its cycles, as
// k's kernel takes them: their sub-symbols, and which states accept them.
type cycleRule struct {
	n     *automata.NFA
	k     *sim.Compiled
	subs  []byte // the input's sub-symbols, zero-padded to whole cycles
	units int    // symbols a kernel cycle
}

func newCycleRule(c *simtest.Case, k *sim.Compiled) *cycleRule {
	_, units := k.NewEngine().Geometry()
	r := &cycleRule{n: c.NFA, k: k, units: units, subs: sim.AppendSubSymbols(nil, c.NFA.Bits, c.Input)}
	for len(r.subs)%c.NFA.Stride != 0 {
		r.subs = append(r.subs, 0)
	}
	return r
}

// accepts reports whether state i accepts the sub-symbols of cycle at kernel
// position q: a residual state at any.
func (r *cycleRule) accepts(i, q, cycle int) bool {
	if r.k.Residual(i) {
		return true
	}
	S := r.n.Stride
	syms := r.subs[cycle*S:][:S]
	for p := q * S / r.units; p < (q+1)*S/r.units; p++ {
		ok := false
		for _, rt := range r.n.States[i].Match {
			ok = ok || !rt.Empty() && rt[p].Has(syms[p])
		}
		if !ok {
			return false
		}
	}
	return true
}

// successors returns the successors of the states of prev, and whether at
// every position of cycle one of them accepts its symbols.
func (r *cycleRule) successors(prev bitvec.Words, cycle int) (succ []int, accepted bool) {
	prev.ForEach(func(i int) {
		for _, s := range r.n.States[i].Out {
			succ = append(succ, int(s))
		}
	})
	accepted = true
	for q := range r.units {
		any := false
		for _, s := range succ {
			any = any || r.accepts(s, q, cycle)
		}
		accepted = accepted && any
	}
	return succ, accepted
}

// successorSkips runs c on k's kernel with a lane that holds every cycle's
// successor OR to the rule TestSpineSkips states, and returns how many
// cycles skipped it although the previous cycle's states had successors.
func successorSkips(t *testing.T, c *simtest.Case, k *sim.Compiled) int {
	r, e := newCycleRule(c, k), k.NewEngine()
	skipped := 0
	e.SetLane(func(cycle int) {
		allHit := true
		starts := e.Starts(cycle - 1)
		prev := e.PrevActive()
		prev.ForEach(func(i int) { allHit = allHit && starts.Get(i) })
		succ, accepted := r.successors(prev, cycle)
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

// imageRuns is a tracer that recounts, from what the automaton does and with
// nothing added to the kernel, the cycles a kernel that looks its start
// vectors up steps by image number: past the first, after a cycle whose
// active states were all start states (none, when it was the first), whose
// successors, if any, reject the cycle's symbols at some position, and
// activating only start states, none of which reports. It also counts the
// runs of such cycles that span a block seam — the last cycle of a session
// block and the first of the next — and of those, the ones whose first
// cycle past the run reports.
type imageRuns struct {
	*cycleRule
	starts       func(t int) bitvec.Words
	block        int // cycles a session block
	prev         bitvec.Words
	started, was bool // the previous cycle activated only start states; it was a run cycle
	spanning     bool // the run in progress spans a seam
	count        int
	seams        int
	reported     int
}

func newImageRuns(c *simtest.Case, k *sim.Compiled) *imageRuns {
	e := k.NewEngine()
	bits, units := e.Geometry()
	return &imageRuns{cycleRule: newCycleRule(c, k), starts: e.Starts, block: simtest.FeedBlock() * 8 / (bits * units)}
}

func (r *imageRuns) OnCycle(t int, _, active bitvec.Words) {
	starts := r.starts(t)
	only, reports := true, false
	for w, x := range active {
		only = only && x&^starts[w] == 0
		for ; x != 0; x &= x - 1 {
			reports = reports || r.n.States[w<<6|bits.TrailingZeros64(x)].Report
		}
	}
	run := false
	if t > 0 && r.started && (t > 1 || !r.prev.Any()) {
		succ, accepted := r.successors(r.prev, t)
		run = (len(succ) == 0 || !accepted) && only && !reports
	}
	switch {
	case run:
		r.count++
		r.spanning = r.spanning || r.was && t%r.block == 0
	case r.spanning:
		r.seams++
		if reports {
			r.reported++
		}
		r.spanning = false
	}
	r.was, r.started = run, only
	r.prev = append(r.prev[:0], active...)
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
