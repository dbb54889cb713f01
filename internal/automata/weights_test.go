package automata

import (
	"math"
	"slices"
	"strings"
	"testing"

	"impala/internal/bitvec"
)

// weightedChain builds start -> mid -> report plus a detached orphan state,
// with a distinct weight on every edge so renumbering mistakes are visible.
func weightedChain(t *testing.T) (*NFA, *Weights) {
	t.Helper()
	n := New(8, 1)
	s0 := n.AddState(ByteMatchState(bitvec.ByteOf('a'), StartAllInput, false))
	s1 := n.AddState(ByteMatchState(bitvec.ByteOf('b'), StartNone, false))
	s2 := n.AddState(ByteMatchState(bitvec.ByteOf('c'), StartNone, true))
	n.AddState(ByteMatchState(bitvec.ByteOf('z'), StartNone, false)) // unreachable
	n.AddEdge(s0, s1)
	n.AddEdge(s1, s2)
	w := NewWeights(n)
	w.Edge[s0][0] = 2
	w.Edge[s1][0] = -1
	w.Start[s0] = 3
	w.Threshold = 4
	return n, w
}

func TestWeightsShapeAndClone(t *testing.T) {
	n, w := weightedChain(t)
	if len(w.Edge) != n.NumStates() || len(w.Start) != n.NumStates() {
		t.Fatalf("NewWeights shaped %d/%d for %d states", len(w.Edge), len(w.Start), n.NumStates())
	}
	if w.NumEdges() != n.NumTransitions() {
		t.Fatalf("NumEdges() = %d, want %d", w.NumEdges(), n.NumTransitions())
	}
	if err := w.Validate(n); err != nil {
		t.Fatal(err)
	}
	c := w.Clone()
	c.Edge[0][0] = 99
	c.Start[0] = 99
	if w.Edge[0][0] != 2 || w.Start[0] != 3 {
		t.Fatal("Clone aliases the original's storage")
	}
	if c.Threshold != w.Threshold {
		t.Fatal("Clone dropped the threshold")
	}
	if (*Weights)(nil).Clone() != nil {
		t.Fatal("nil Clone should be nil")
	}
}

func TestWeightsValidateRejects(t *testing.T) {
	n, _ := weightedChain(t)
	cases := []struct {
		name string
		mut  func(w *Weights)
		want string
	}{
		{"state count", func(w *Weights) { w.Edge = w.Edge[:1] }, "shaped for"},
		{"edge count", func(w *Weights) { w.Edge[0] = nil }, "weights for"},
		{"NaN edge", func(w *Weights) { w.Edge[0][0] = math.NaN() }, "NaN"},
		{"infinite edge", func(w *Weights) { w.Edge[1][0] = math.Inf(1) }, "infinite"},
		{"edge over limit", func(w *Weights) { w.Edge[0][0] = 2 * WeightLimit }, "weight limit"},
		{"bad start weight", func(w *Weights) { w.Start[2] = -3 * WeightLimit }, "start weight"},
		{"bad threshold", func(w *Weights) { w.Threshold = 2 * ScoreLimit }, "threshold"},
	}
	for _, tc := range cases {
		_, w := weightedChain(t)
		tc.mut(w)
		err := w.Validate(n)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

// On a set not closed under edges, NFA.Induced drops the edges that leave it
// and Weights.Induced drops their weights, keeping the rest in out-edge
// order; a state that lost no edge keeps its weight row aliased.
func TestInducedDropsLeavingEdges(t *testing.T) {
	n := New(8, 1)
	for _, b := range []byte("abcd") {
		n.AddState(ByteMatchState(bitvec.ByteOf(b), StartNone, b == 'd'))
	}
	n.States[0].Start = StartAllInput
	for _, e := range [][2]StateID{{0, 1}, {0, 2}, {0, 3}, {1, 3}, {1, 2}, {2, 0}, {3, 3}} {
		n.AddEdge(e[0], e[1])
	}
	w := NewWeights(n)
	w.Edge = [][]float64{{1, 2, 3}, {4, 5}, {6}, {7}}
	w.Start[0], w.Threshold = 8, 9
	before, wBefore := n.Clone(), w.Clone()

	// State 2 is left out: the edges 0 -> 2 and 1 -> 2 leave the set, and
	// 2 -> 0 goes with its source.
	ids := []StateID{0, 1, 3}
	sub, sw := n.Induced(ids), w.Induced(n, ids)
	if err := sw.Validate(sub); err != nil {
		t.Fatal(err)
	}
	wantOut := [][]StateID{{1, 2}, {2}, {2}}
	wantW := [][]float64{{1, 3}, {4}, {7}}
	for i := range ids {
		if !slices.Equal(sub.States[i].Out, wantOut[i]) || !slices.Equal(sw.Edge[i], wantW[i]) {
			t.Errorf("state %d (orig %d): out-edges %v weighted %v, want %v weighted %v",
				i, ids[i], sub.States[i].Out, sw.Edge[i], wantOut[i], wantW[i])
		}
	}
	if &sw.Edge[2][0] != &w.Edge[3][0] {
		t.Error("a state that lost no edge has its weight row copied, want aliased")
	}
	if sw.Start[0] != 8 || sw.Threshold != 9 {
		t.Errorf("start weight %g, threshold %g: want 8, 9", sw.Start[0], sw.Threshold)
	}
	for i := range n.States {
		if !slices.Equal(n.States[i].Out, before.States[i].Out) || !slices.Equal(w.Edge[i], wBefore.Edge[i]) {
			t.Fatalf("Induced modified its source at state %d", i)
		}
	}
}

// prune drops n's unreachable states and, with a table, their weight rows —
// Reachable, then the two Induced methods, as homogenize does — returning
// the pruned pair and how many states went.
func prune(n *NFA, w *Weights) (*NFA, *Weights, int) {
	live := Reachable(n)
	if w != nil {
		w = w.Induced(n, live)
	}
	return n.Induced(live), w, n.NumStates() - len(live)
}

func TestRemoveUnreachableWeighted(t *testing.T) {
	n, w := weightedChain(t)
	// Give the doomed orphan an edge into the live chain: the survivors'
	// weight rows must shed nothing, only the orphan's row disappears.
	n.AddEdge(3, 1)
	w.Edge[3] = []float64{7}
	n, w, removed := prune(n, w)
	if removed != 1 {
		t.Fatalf("removed %d states, want 1", removed)
	}
	if n.NumStates() != 3 || len(w.Edge) != 3 || len(w.Start) != 3 {
		t.Fatalf("post-prune shapes: %d states, %d/%d weight rows", n.NumStates(), len(w.Edge), len(w.Start))
	}
	if err := w.Validate(n); err != nil {
		t.Fatal(err)
	}
	if w.Edge[0][0] != 2 || w.Edge[1][0] != -1 || w.Start[0] != 3 {
		t.Fatal("surviving weights did not follow their states")
	}

	// Already-pruned automata are a no-op.
	if _, _, removed := prune(n, w); removed != 0 {
		t.Fatalf("second prune removed %d states", removed)
	}

	// When a surviving state's out-edges point at dropped states, the
	// matching weight entries must disappear with them: cut s0 -> s1 so the
	// whole downstream chain dies, leaving s0 with zero edges and weights.
	n2, w2 := weightedChain(t)
	n2.AddEdge(1, 3)
	w2.Edge[1] = append(w2.Edge[1], 5)
	n2.States[0].Out = nil
	w2.Edge[0] = nil
	n2, w2, removed = prune(n2, w2)
	if removed != 3 {
		t.Fatalf("removed %d states, want 3", removed)
	}
	if n2.NumStates() != 1 || w2.NumEdges() != 0 {
		t.Fatalf("expected lone start state with no edges, got %d states, %d edges", n2.NumStates(), w2.NumEdges())
	}

	// Without a table only the automaton is pruned.
	n3, _ := weightedChain(t)
	if _, _, removed := prune(n3, nil); removed != 1 {
		t.Fatalf("nil-table prune removed %d, want 1", removed)
	}
}
