package sim

import (
	"math"
	"reflect"
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

// A lockstep form over lanes that partition the automaton is the whole
// automaton: same reports (original state IDs), same statistics, batch and
// session; with no lanes it steps nothing.
func TestLockstepMatchesWhole(t *testing.T) {
	n := automata.New(8, 1)
	n.AddLiteral("needle", automata.StartAllInput, 1)
	n.AddLiteral("^hay", automata.StartOfData, 2)
	n.AddLiteral("stack", automata.StartAllInput, 3)
	whole, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	l := lockstepOverCCs(t, n)
	if got, want := len(l.Lanes()), len(n.ConnectedComponents()); got != want {
		t.Fatalf("%d lanes, want %d", got, want)
	}
	input := []byte("^hay needle haystack needlestack")
	want, wantStats := whole.Run(input)
	if len(want) == 0 {
		t.Fatal("fixture reports nothing")
	}
	got, gotStats := l.Run(input)
	if !reflect.DeepEqual(got, want) || gotStats != wantStats {
		t.Fatalf("lockstep Run diverges\n got %v %+v\nwant %v %+v", got, gotStats, want, wantStats)
	}
	got, gotStats = RunBatch(l.NewCore(), input, 5, nil)
	if !reflect.DeepEqual(got, want) || gotStats != wantStats {
		t.Fatalf("chunked lockstep core diverges\n got %v %+v\nwant %v %+v", got, gotStats, want, wantStats)
	}

	empty := NewLockstep(8, 1, nil)
	if r, st := empty.Run(input); len(r) != 0 || st.Cycles != len(input) || st.TotalEnabled != 0 {
		t.Fatalf("empty lockstep: %d reports, stats %+v", len(r), st)
	}
}

// A core back in the pool must not pin the request that last used it: its
// sink (the finished session's emit closure, which reaches the session and
// the caller's report slice) is cleared on release.
func TestLockstepReleaseClearsSink(t *testing.T) {
	n := automata.New(8, 1)
	n.AddLiteral("needle", automata.StartAllInput, 1)
	l := lockstepOverCCs(t, n)
	c := l.newCore()
	if r, _ := RunBatch(c, []byte("a needle"), 0, nil); len(r) != 1 {
		t.Fatalf("%d reports, want 1", len(r))
	}
	if c.sink == nil {
		t.Fatal("a stepped core holds no sink; the pin below would be vacuous")
	}
	l.release(c)
	if c.sink != nil {
		t.Fatal("released core still holds the previous run's sink")
	}
}

// A pooled core keeps the session its one-shot runs drive, so on a pooled core
// a Run that reports nothing allocates nothing — kernel and lockstep alike —
// and the kept session lets go of a finished run's reports as the core lets go
// of its sink. (The fewest of several runs: under the race detector a
// sync.Pool drops a quarter of what it is given, and a fresh core is not what
// is pinned here.)
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
	e := c.NewEngine()
	if r, _ := e.Run(hit, new(liveWords)); len(r) != 1 {
		t.Fatalf("%d reports, want 1", len(r))
	}
	if e.batch == nil || e.batch.batch != nil || e.batch.tracer != nil {
		t.Fatal("an engine's kept session still holds the last run's reports or tracer")
	}
	core := l.pool.New().(*lockstepCore)
	if r, _ := core.batch.runBatch(hit, 0, nil); len(r) != 1 {
		t.Fatalf("%d reports, want 1", len(r))
	}
	l.release(core)
	if core.batch.batch != nil || core.sink != nil {
		t.Fatal("a released lockstep core still holds the last run's reports or sink")
	}
}
