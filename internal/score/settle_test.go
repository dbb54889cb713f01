package score

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"impala/internal/automata"
	"impala/internal/bitvec"
	"impala/internal/sim"
	"impala/internal/sim/simtest"
	"impala/internal/workload"
)

// settledTracer is a Tracer on a scored engine that holds every active
// settled state's score to the value settle fixed at load: on every cycle it
// scores each one as the pass would — the best of its start weight, if it is
// a start candidate, and its active predecessors' scores plus their edges'
// weights — and fails unless that, and the score the gate reads, is the
// fixed value, bit for bit. A tracer makes the kernel call the pass on every
// cycle, so an unsettled predecessor's score is the pass's.
type settledTracer struct {
	tb      testing.TB
	name    string
	e       *Engine
	w       *automata.Weights
	checked int
}

func (tr *settledTracer) OnCycle(t int, _, active bitvec.Words) {
	e, c := tr.e, tr.e.c
	prev, starts, pw := e.kernel.PrevActive(), e.kernel.Starts(t), e.score[t&1^1]
	active.ForEach(func(i int) {
		if !c.settled.Get(i) {
			return
		}
		tr.checked++
		best := math.Inf(-1)
		if starts.Get(i) {
			best = tr.w.Start[i]
		}
		for p := c.inOff[i]; p < c.inOff[i+1]; p++ {
			if u := c.inFrom[p]; prev.Get(int(u)) {
				if v := satAdd(pw[u], c.inW[p]); v > best {
					best = v
				}
			}
		}
		if got := e.score[t&1][i]; math.Float64bits(best) != math.Float64bits(c.val[i]) || got != c.val[i] {
			tr.tb.Fatalf("%s: cycle %d: settled state %d scores %g on its path, %g for the gate, settled at %g", tr.name, t, i, best, got, c.val[i])
		}
	})
}

// settledScores returns c's settled states with their scores.
func settledScores(c *Compiled) map[int]float64 {
	got := map[int]float64{}
	c.settled.ForEach(func(i int) { got[i] = c.val[i] })
	return got
}

// traceSettled runs input on a fresh engine of c, the scored form of n under
// w, with a settledTracer, and returns the active settled states it checked.
func traceSettled(tb testing.TB, name string, c *Compiled, w *automata.Weights, input []byte) int {
	tb.Helper()
	tr := &settledTracer{tb: tb, name: name, e: c.NewEngine(), w: w}
	sim.RunBatch(tr.e, input, 0, tr)
	return tr.checked
}

// fewWeights returns a weight table for n whose edge and start weights are
// drawn from two or three values, so that equal-score paths — settled
// states — and unequal ones both occur, with ties among predecessors;
// simtest.RandomWeights rarely settles a state that has an in-edge.
func fewWeights(r *rand.Rand, n *automata.NFA) *automata.Weights {
	values := []float64{0, float64(1 + r.Intn(3))}
	if r.Intn(2) == 0 {
		values = append(values, -float64(1+r.Intn(3)))
	}
	w := automata.NewWeights(n)
	for i := range w.Edge {
		for j := range w.Edge[i] {
			w.Edge[i][j] = values[r.Intn(len(values))]
		}
		w.Start[i] = values[r.Intn(len(values))]
	}
	w.Threshold = -automata.ScoreLimit
	return w
}

// settleShape is a hand-built weighted automaton with the scores settle must
// fix, by state, and an input that drives every path.
type settleShape struct {
	name    string
	n       *automata.NFA
	w       *automata.Weights
	settled map[int]float64
	input   []byte
}

// settleShapes are the four cases of the settling rule, each from a start-
// of-input head s (score 0) that matches byte 0:
//   - a diamond whose two paths reach its report d at one score: d settles;
//   - the same diamond with the paths a score apart: d does not;
//   - a start state t reached from s at a score its start weight differs
//     from, and its reporting successor: neither settles — and a start state
//     u whose start weight is its predecessor's score plus the edge: u does.
//     Its input starts on t and u alone, neither reporting, so the kernel
//     calls the pass on that cycle only because t is watched;
//   - a state a on a cycle, and its reporting successor past it: neither.
func settleShapes() []settleShape {
	byteOf := func(b byte, start automata.StartKind, report bool) automata.State {
		return automata.ByteMatchState(bitvec.ByteOf(b), start, report)
	}
	diamond := func(name string, bd float64, settled map[int]float64) settleShape {
		n := automata.New(8, 1)
		s := n.AddState(byteOf(0, automata.StartAllInput, false))
		a := n.AddState(byteOf(1, automata.StartNone, false))
		b := n.AddState(byteOf(3, automata.StartNone, false))
		d := n.AddState(byteOf(2, automata.StartNone, true))
		n.AddEdge(s, a)
		n.AddEdge(s, b)
		n.AddEdge(a, d)
		n.AddEdge(b, d)
		w := automata.NewWeights(n)
		w.Edge[s][0], w.Edge[s][1], w.Edge[a][0], w.Edge[b][0] = 1, 2, 2, bd
		w.Threshold = -automata.ScoreLimit
		return settleShape{name, n, w, settled, []byte{0, 1, 2, 0, 3, 2, 4, 0, 1, 2}}
	}

	starts := automata.New(8, 1)
	s := starts.AddState(byteOf(0, automata.StartAllInput, false))
	t := starts.AddState(byteOf(1, automata.StartAllInput, false))
	r := starts.AddState(byteOf(2, automata.StartNone, true))
	u := starts.AddState(byteOf(1, automata.StartAllInput, false))
	starts.AddEdge(s, t)
	starts.AddEdge(t, r)
	starts.AddEdge(s, u)
	startsW := automata.NewWeights(starts)
	startsW.Edge[s][0], startsW.Start[t], startsW.Edge[t][0] = 1, -2, 1
	startsW.Edge[s][1], startsW.Start[u] = 1, 1
	startsW.Threshold = -automata.ScoreLimit

	cycle := automata.New(8, 1)
	s = cycle.AddState(byteOf(0, automata.StartAllInput, false))
	a := cycle.AddState(byteOf(1, automata.StartNone, false))
	r = cycle.AddState(byteOf(2, automata.StartNone, true))
	cycle.AddEdge(s, a)
	cycle.AddEdge(a, a)
	cycle.AddEdge(a, r)
	cycleW := automata.NewWeights(cycle)
	cycleW.Edge[s][0], cycleW.Edge[a][0], cycleW.Edge[a][1] = 1, 1, 0
	cycleW.Threshold = -automata.ScoreLimit

	return []settleShape{
		diamond("equal-score paths", 1, map[int]float64{0: 0, 1: 1, 2: 2, 3: 3}),
		diamond("unequal-score paths", 0, map[int]float64{0: 0, 1: 1, 2: 2}),
		{"start weights", starts, startsW, map[int]float64{0: 0, 3: 1}, []byte{1, 2, 0, 1, 2, 1, 1, 2, 0, 1, 2}},
		{"a cycle", cycle, cycleW, map[int]float64{0: 0}, []byte{0, 1, 2, 0, 1, 1, 1, 2, 0, 1, 1, 2}},
	}
}

// A settled state's score is the one settle fixed on every cycle it is
// active: held by a settledTracer on the hand-built shapes, whose settled
// scores are pinned, on the dna_scored_match mesh, 576 of whose 672 live
// states settle, and on every spine case under random weights and under
// weights of two or three values. The shapes' untraced runs, on which the
// kernel calls the pass only when an unsettled state is active or a report
// fires, also agree with the scalar reference.
func TestSettledScores(t *testing.T) {
	for _, sh := range settleShapes() {
		c, err := Compile(sh.n, sh.w)
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		if got := settledScores(c); !maps.Equal(got, sh.settled) {
			t.Errorf("%s: settled scores %v, want %v", sh.name, got, sh.settled)
		}
		traceSettled(t, sh.name, c, sh.w, sh.input)
		reports, _ := c.Run(sh.input)
		if want := naiveScoredRun(sh.n, sh.w, sh.input); len(want) == 0 || !reflect.DeepEqual(reports, want) {
			t.Fatalf("%s: %v, the reference %v", sh.name, reports, want)
		}
	}

	n, w, input := readMesh(t, workload.ScoredLevenshtein)
	sub, sw, _ := automata.PruneThreshold(n, w)
	mesh, err := Compile(sub, sw)
	if err != nil {
		t.Fatal(err)
	}
	if settled, live := mesh.settled.Count(), sub.NumStates(); settled != 576 || live != 672 {
		t.Errorf("the dna_scored_match mesh settles %d of %d live states, want 576 of 672", settled, live)
	}
	if traceSettled(t, "dna_scored_match mesh", mesh, sw, input) == 0 {
		t.Fatal("the dna_scored_match mesh activates no settled state")
	}

	r := rand.New(rand.NewSource(3))
	for _, tc := range simtest.Cases(t) {
		for k, w := range []*automata.Weights{simtest.RandomWeights(tc.NFA, 1), fewWeights(r, tc.NFA)} {
			c, err := Compile(tc.NFA, w)
			if err != nil {
				t.Fatalf("%s: %v", tc.Name, err)
			}
			traceSettled(t, fmt.Sprintf("%s, weights %d", tc.Name, k), c, w, tc.Input)
		}
	}
}

// FuzzScored holds the scored engine to the scalar reference, scores
// included, on random automata at every geometry simtest draws, under
// weights of two or three values — settled states, unsettled ones and ties
// among predecessors all occur — and a threshold some reports miss: the
// one-shot Run and a session fed in random chunks both report what
// naiveScoredRun reports.
func FuzzScored(f *testing.F) {
	for _, seed := range []struct {
		seed   int64
		states uint8
	}{{1, 0}, {2, 6}, {3, 20}, {4, 40}, {5, 12}} {
		f.Add(seed.seed, seed.states)
	}
	f.Fuzz(func(t *testing.T, seed int64, states uint8) {
		r := rand.New(rand.NewSource(seed))
		n := simtest.RandomNFA(r, int(states%48))
		w := fewWeights(r, n)
		w.Threshold = float64(r.Intn(7) - 3)
		input := make([]byte, r.Intn(200))
		for i := range input {
			input[i] = byte(r.Intn(256)) & []byte{0x33, 0x11, 0xff}[r.Intn(3)]
		}
		c, err := Compile(n, w)
		if err != nil {
			t.Fatal(err)
		}
		want := naiveScoredRun(n, w, input)
		if got, _ := c.Run(input); !reflect.DeepEqual(got, want) {
			t.Fatalf("Run: %v\nthe reference: %v", got, want)
		}
		var got []sim.Report
		s := c.NewSession(func(r sim.Report) { got = append(got, r) })
		for rest := input; len(rest) > 0; {
			k := min(len(rest), 1+r.Intn(9))
			s.Feed(rest[:k])
			rest = rest[k:]
		}
		s.Flush()
		sim.SortReports(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("a chunked session: %v\nthe reference: %v", got, want)
		}
	})
}
