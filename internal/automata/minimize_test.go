package automata

import (
	"testing"

	"impala/internal/bitvec"
)

func TestMinimizePrefixMerge(t *testing.T) {
	// Two identical "ab" prefixes inside one component (they feed a shared
	// reporting tail) merge fully: a-states share parents (none) and
	// attributes; then the b-states share the merged parent.
	n := New(8, 1)
	var mids []StateID
	for k := 0; k < 2; k++ {
		a := n.AddState(ByteMatchState(bitvec.ByteOf('a'), StartAllInput, false))
		b := n.AddState(ByteMatchState(bitvec.ByteOf('b'), StartNone, false))
		n.AddEdge(a, b)
		mids = append(mids, b)
	}
	tail := n.AddState(ByteMatchState(bitvec.ByteOf('c'), StartNone, true))
	for _, m := range mids {
		n.AddEdge(m, tail)
	}
	removed := Minimize(n)
	if removed != 2 || n.NumStates() != 3 {
		t.Fatalf("removed=%d states=%d, want 2 and 3", removed, n.NumStates())
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMinimizeKeepsDistinctReports(t *testing.T) {
	// Two reporting tails with different codes hanging off one prefix must
	// never merge.
	n := New(8, 1)
	a := n.AddState(ByteMatchState(bitvec.ByteOf('a'), StartAllInput, false))
	for code := 1; code <= 2; code++ {
		b := n.AddState(State{
			Match:      MatchSet{Rect{bitvec.ByteOf('b')}},
			Report:     true,
			ReportCode: code,
		})
		n.AddEdge(a, b)
	}
	Minimize(n)
	if n.NumStates() != 3 {
		t.Fatalf("states=%d, want 3 (distinct report codes must survive)", n.NumStates())
	}
}

func TestMinimizeSuffixMerge(t *testing.T) {
	// "ax" and "bx" joined at a common head: the two 'x' reporting states
	// share children (none), attributes, and live in one component →
	// suffix merge.
	n := New(8, 1)
	head := n.AddState(ByteMatchState(bitvec.ByteAll(), StartAllInput, false))
	for _, c := range []byte{'a', 'b'} {
		mid := n.AddState(ByteMatchState(bitvec.ByteOf(c), StartNone, false))
		x := n.AddState(State{
			Match:      MatchSet{Rect{bitvec.ByteOf('x')}},
			Report:     true,
			ReportCode: 9,
		})
		n.AddEdge(head, mid)
		n.AddEdge(mid, x)
	}
	Minimize(n)
	if n.NumStates() != 4 {
		t.Fatalf("states=%d, want 4 (head, two mids, one shared x)", n.NumStates())
	}
}

func TestMinimizeRingStable(t *testing.T) {
	// A ring with a positional report is NOT collapsible even when all
	// symbols are identical (the report fires every 4th 'a', not every
	// 'a') — minimization must leave it intact.
	n := New(8, 1)
	n.AddRing([]byte{'a', 'a', 'a', 'a'}, 3)
	if removed := Minimize(n); removed != 0 {
		t.Fatalf("ring wrongly shrank by %d states", removed)
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMinimizeSelfLoopEquivalence(t *testing.T) {
	// Two equivalent a+ heads inside ONE component (joined by a common
	// child) merge via the self-loop-canonicalized prefix key.
	n := New(8, 1)
	var heads []StateID
	for k := 0; k < 2; k++ {
		id := n.AddState(State{
			Match: MatchSet{Rect{bitvec.ByteOf('a')}},
			Start: StartAllInput,
		})
		n.AddEdge(id, id)
		heads = append(heads, id)
	}
	tail := n.AddState(State{Match: MatchSet{Rect{bitvec.ByteOf('b')}}, Report: true})
	for _, h := range heads {
		n.AddEdge(h, tail)
	}
	Minimize(n)
	if n.NumStates() != 2 {
		t.Fatalf("states=%d, want 2", n.NumStates())
	}
}

func TestMinimizeDoesNotMergeAcrossComponents(t *testing.T) {
	// Two identical but independent a+ automata stay separate: merging
	// across components would weld unrelated rules into one CC and break
	// the placement stage's packing.
	n := New(8, 1)
	for k := 0; k < 2; k++ {
		id := n.AddState(State{
			Match:  MatchSet{Rect{bitvec.ByteOf('a')}},
			Start:  StartAllInput,
			Report: true,
		})
		n.AddEdge(id, id)
	}
	Minimize(n)
	if n.NumStates() != 2 {
		t.Fatalf("states=%d, want 2", n.NumStates())
	}
	if len(n.ConnectedComponents()) != 2 {
		t.Fatal("components were merged")
	}
}

func TestRemoveUnreachable(t *testing.T) {
	n := New(8, 1)
	n.AddLiteral("ab", StartAllInput, 1)
	// Orphan state with no start and no parents.
	n.AddState(ByteMatchState(bitvec.ByteOf('z'), StartNone, true))
	live := Reachable(n)
	if removed := n.NumStates() - len(live); removed != 1 {
		t.Fatalf("removed = %d, want 1", removed)
	}
	if n = n.Induced(live); n.NumStates() != 2 {
		t.Fatalf("states = %d", n.NumStates())
	}
}

func TestMinimizeIdempotent(t *testing.T) {
	n := New(8, 1)
	n.AddLiteral("hello", StartAllInput, 1)
	n.AddLiteral("help", StartAllInput, 2)
	Minimize(n)
	if again := Minimize(n); again != 0 {
		t.Fatalf("second Minimize removed %d", again)
	}
}
