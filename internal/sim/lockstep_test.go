package sim

import (
	"testing"

	"impala/internal/automata"
)

// lockstepOf builds the lockstep form of n on one compiled lane.
func lockstepOf(t *testing.T, n *automata.NFA) *Lockstep {
	t.Helper()
	c, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	orig := make([]automata.StateID, n.NumStates())
	for i := range orig {
		orig[i] = automata.StateID(i)
	}
	return NewLockstep(n.Bits, n.Stride, Lane{New: func() Core { return c.NewEngine() }, Orig: orig})
}

// A lockstep form over a lane of no state steps nothing: every cycle runs,
// nothing is enabled, nothing reports. (A form over a kernel is a row of
// TestSpine.)
func TestLockstepNoLanes(t *testing.T) {
	input := []byte("^hay needle haystack needlestack")
	if r, st := NewLockstep(8, 1, Lane{}).Run(input); len(r) != 0 || st.Cycles != len(input) || st.TotalEnabled != 0 {
		t.Fatalf("empty lockstep: %d reports, stats %+v", len(r), st)
	}
}

// A lockstep core lets go of the sink it was stepped with at the end of each
// block, so an idle pooled lockstep core does not hold the finished session's
// emit closure, which reaches the caller's report slice. A report reaching the
// run at all means the core held its sink while it stepped.
func TestLockstepReleaseClearsSink(t *testing.T) {
	n := automata.New(8, 1)
	n.AddLiteral("needle", automata.StartAllInput, 1)
	l := lockstepOf(t, n)
	c := l.newCore()
	if r, _ := RunBatch(c, []byte("a needle"), 0, nil); len(r) != 1 {
		t.Fatalf("%d reports, want 1", len(r))
	}
	if c.sink != nil {
		t.Fatal("an idle lockstep core still holds the last run's sink")
	}
}

// An idle pooled session holds nothing of the run it finished: not the
// buffer its reports went to and not its tracer (its core's sink is
// TestLockstepReleaseClearsSink's; that a Pool keeps each core with its
// session, so a warm run allocates nothing, is sim_test's
// TestPooledFormsAllocFree).
func TestPooledRunKeepsItsSession(t *testing.T) {
	n := automata.New(8, 1)
	n.AddLiteral("needle in a", automata.StartAllInput, 1)
	c, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	l := lockstepOf(t, n)
	hit := []byte("one needle in a stack")
	for name, core := range map[string]Core{"kernel": c.NewEngine(), "lockstep": l.newCore()} {
		s := NewSession(core, nil)
		if r, _ := s.runBatch(make([]Report, 1, 4), hit, 0, new(sweptWords)); len(r) != 2 {
			t.Fatalf("%s: %d rows, want the prefix's and 1 report", name, len(r))
		}
		if s.batch != nil || s.tracer != nil {
			t.Fatalf("%s: an idle pooled session still holds the last run's reports or tracer", name)
		}
	}
}
