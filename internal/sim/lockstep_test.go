package sim

import (
	"math"
	"testing"

	"impala/internal/automata"
)

// lockstepOverCCs builds the lockstep form with one compiled lane per
// connected component of n.
func lockstepOverCCs(t *testing.T, n *automata.NFA) *Lockstep {
	t.Helper()
	var lanes []Lane
	for _, cc := range n.ConnectedComponents() {
		c, err := Compile(n.Induced(cc))
		if err != nil {
			t.Fatal(err)
		}
		lanes = append(lanes, Lane{New: func() Core { return c.NewEngine() }, Orig: cc})
	}
	return NewLockstep(n.Bits, n.Stride, lanes)
}

// A lockstep form with no lanes steps nothing: every cycle runs, nothing is
// enabled, nothing reports. (Forms with lanes are rows of TestSpine.)
func TestLockstepNoLanes(t *testing.T) {
	input := []byte("^hay needle haystack needlestack")
	if r, st := NewLockstep(8, 1, nil).Run(input); len(r) != 0 || st.Cycles != len(input) || st.TotalEnabled != 0 {
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
	l := lockstepOverCCs(t, n)
	c := l.newCore()
	if r, _ := RunBatch(c, []byte("a needle"), 0, nil); len(r) != 1 {
		t.Fatalf("%d reports, want 1", len(r))
	}
	if c.sink != nil {
		t.Fatal("an idle lockstep core still holds the last run's sink")
	}
}

// A Pool keeps each core with the session its one-shot runs drive, so a Run
// that reports nothing allocates nothing — kernel and lockstep alike — and an
// idle pooled session holds nothing of the run it finished: not its reports
// and not its tracer (its core's sink is TestLockstepReleaseClearsSink's).
// (The fewest of several runs: under the race detector a sync.Pool drops a
// quarter of what it is given, and a fresh core is not what is pinned here.)
func TestPooledRunKeepsItsSession(t *testing.T) {
	n := automata.New(8, 1)
	n.AddLiteral("needle in a", automata.StartAllInput, 1)
	n.AddLiteral("^haystack", automata.StartOfData, 2)
	c, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	l := lockstepOverCCs(t, n)
	quiet, hit := benchInput(3*feedBlock+1), []byte("one needle in a stack")
	for name, run := range map[string]func([]byte) ([]Report, Stats){"kernel": c.Run, "lockstep": l.Run} {
		if r, _ := run(quiet); len(r) != 0 {
			t.Fatalf("%s: the quiet input reports %d times", name, len(r))
		}
		fewest := math.Inf(1)
		for i := 0; i < 20; i++ {
			fewest = min(fewest, testing.AllocsPerRun(1, func() { run(quiet) }))
		}
		if fewest != 0 {
			t.Errorf("%s: a Run that reports nothing allocates %.0f objects on a pooled core, want 0", name, fewest)
		}
		if r, _ := run(hit); len(r) != 1 {
			t.Fatalf("%s: %d reports, want 1", name, len(r))
		}
	}
	for name, core := range map[string]Core{"kernel": c.NewEngine(), "lockstep": l.newCore()} {
		s := NewSession(core, nil)
		if r, _ := s.runBatch(hit, 0, new(liveWords)); len(r) != 1 {
			t.Fatalf("%s: %d reports, want 1", name, len(r))
		}
		if s.batch != nil || s.tracer != nil {
			t.Fatalf("%s: an idle pooled session still holds the last run's reports or tracer", name)
		}
	}
}
