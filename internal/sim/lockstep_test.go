package sim

import (
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
