package score

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"impala/internal/automata"
	"impala/internal/bitvec"
	"impala/internal/sim"
	"impala/internal/sim/simtest"
	"impala/internal/workload"
)

// activeTracer fails the test if a threshold-dead state is ever active —
// residual states included, which the kernel sets active beside the masks —
// and marks every active state in seen, when it is set. It is handed the
// vectors of a pruned form, whose state i is the case's live[i] (every state
// its own when live is nil).
type activeTracer struct {
	tb         testing.TB
	what       string
	live       []automata.StateID
	dead, seen bitvec.Words
}

func (tr activeTracer) OnCycle(t int, _, active bitvec.Words) {
	active.ForEach(func(i int) {
		if tr.live != nil {
			i = int(tr.live[i])
		}
		if tr.dead != nil && tr.dead.Get(i) {
			tr.tb.Fatalf("%s: cycle %d: threshold-dead state %d is active", tr.what, t, i)
		}
		if tr.seen != nil {
			tr.seen.Set(i)
		}
	})
}

// pruneCase is one weighted automaton and the input it runs over.
type pruneCase struct {
	name  string
	n     *automata.NFA
	w     *automata.Weights
	input []byte
	cuts  []simtest.Chunking
}

func newPruneCase(name string, n *automata.NFA, w *automata.Weights, input []byte) *pruneCase {
	return &pruneCase{name: name, n: n, w: w, input: input, cuts: simtest.Chunkings(input)}
}

// prunedForm is a case's scored form at one threshold, as core.Compile
// seals it: the compiled sub-automaton automata.PruneThreshold leaves; live,
// the case's ID of each of its states (nil when nothing is dead); and dead,
// the case's states it pruned (nil when none).
type prunedForm struct {
	*Compiled
	live []automata.StateID
	dead bitvec.Words
}

// inCase returns r with its State the case's.
func (p *prunedForm) inCase(r sim.Report) sim.Report {
	if p.live != nil {
		r.State = p.live[r.State]
	}
	return r
}

// run is Run with the reports' states the case's.
func (p *prunedForm) run(input []byte) ([]sim.Report, sim.Stats) {
	got, st := p.Run(input)
	for i, r := range got {
		got[i] = p.inCase(r)
	}
	return got, st
}

// compile prunes the case at threshold th and compiles what is left. The
// pruned pair must validate, and pruning it again must prune nothing.
func (pc *pruneCase) compile(tb testing.TB, th float64) *prunedForm {
	tb.Helper()
	w := pc.w.Clone()
	w.Threshold = th
	sub, sw, live := automata.PruneThreshold(pc.n, w)
	if err := sub.Validate(); err != nil {
		tb.Fatalf("%s at threshold %g: the pruned automaton: %v", pc.name, th, err)
	}
	if err := sw.Validate(sub); err != nil {
		tb.Fatalf("%s at threshold %g: the pruned weights: %v", pc.name, th, err)
	}
	if again, _, more := automata.PruneThreshold(sub, sw); more != nil || again != sub {
		tb.Fatalf("%s at threshold %g: pruning the pruned form prunes %d more states", pc.name, th, sub.NumStates()-len(more))
	}
	c, err := Compile(sub, sw)
	if err != nil {
		tb.Fatalf("%s: %v", pc.name, err)
	}
	p := &prunedForm{Compiled: c, live: live}
	if live != nil {
		p.dead = bitvec.NewWords(pc.n.NumStates())
		for i, j := 0, 0; i < pc.n.NumStates(); i++ {
			if j < len(live) && live[j] == automata.StateID(i) {
				j++
			} else {
				p.dead.Set(i)
			}
		}
	}
	return p
}

// open runs the case at the open threshold, which must prune nothing, and
// returns its reports and every state they left active.
func (pc *pruneCase) open(tb testing.TB) ([]sim.Report, bitvec.Words) {
	tb.Helper()
	c := pc.compile(tb, -automata.ScoreLimit)
	if c.live != nil {
		tb.Fatalf("%s: the open threshold prunes %d states", pc.name, c.dead.Count())
	}
	seen := bitvec.NewWords(pc.n.NumStates())
	reports, _ := sim.RunBatch(c.NewEngine(), pc.input, 0, activeTracer{seen: seen})
	return reports, seen
}

// check compiles the case at threshold th and fails unless it reports
// exactly open's reports that score th or more, scores and states included —
// one-shot, traced, and as a stream over every chunking of the spine (the
// whole stream after a Reset among them), with one Stats throughout — and no
// threshold-dead state is ever active. It returns the compiled form.
func (pc *pruneCase) check(tb testing.TB, open []sim.Report, th float64) *prunedForm {
	tb.Helper()
	c := pc.compile(tb, th)
	want := slices.DeleteFunc(slices.Clone(open), func(r sim.Report) bool { return r.Score < th })
	what := fmt.Sprintf("%s at threshold %g (%d states pruned)", pc.name, th, c.dead.Count())
	tr := activeTracer{tb: tb, what: what, live: c.live, dead: c.dead}
	same := func(run string, got []sim.Report, st, wantStats sim.Stats) {
		tb.Helper()
		if !slices.Equal(got, want) {
			i := 0
			for i < min(len(got), len(want)) && got[i] == want[i] {
				i++
			}
			tb.Fatalf("%s, %s: %d reports, the open threshold's filtered %d; the first difference, at %d: %v, want %v",
				what, run, len(got), len(want), i, got[i:min(i+1, len(got))], want[i:min(i+1, len(want))])
		}
		if st != wantStats {
			tb.Fatalf("%s, %s: stats %+v, the one-shot Run's %+v", what, run, st, wantStats)
		}
	}
	got, stats := c.run(pc.input)
	same("one-shot Run", got, stats, stats)
	got, st := sim.RunBatch(c.NewEngine(), pc.input, 0, tr)
	for i, r := range got {
		got[i] = c.inCase(r)
	}
	same("traced run", got, st, stats)

	var calls []sim.Report
	s := c.NewSession(func(r sim.Report) { calls = append(calls, c.inCase(r)) })
	s.SetTracer(tr)
	for _, cut := range pc.cuts {
		s.Reset()
		if cut.Dirty {
			s.Feed(pc.input[:len(pc.input)/2])
			s.Reset()
		}
		calls = calls[:0]
		for _, chunk := range cut.Chunks {
			s.Feed(chunk)
		}
		s.Flush()
		sim.SortReports(calls)
		same(cut.Name, calls, s.Stats(), stats)
	}
	return c
}

// quantiles returns thresholds at the quartiles of the reports' scores and
// one above the best, so that a case is checked keeping most, some and none
// of its reports.
func quantiles(reports []sim.Report) []float64 {
	if len(reports) == 0 {
		return []float64{0, 3}
	}
	scores := make([]float64, len(reports))
	for i, r := range reports {
		scores[i] = r.Score
	}
	slices.Sort(scores)
	n := len(scores)
	return slices.Compact([]float64{scores[n/4], scores[n/2], scores[3*n/4], scores[n-1] + 1})
}

// Pruning the threshold-dead states is exact: at thresholds across the
// spread of each case's scores, the scored form reports what the open
// threshold (which prunes nothing) reports less the reports below the
// threshold, however the input is fed, and no pruned state is ever active.
// The cases are the spine's under random weights, the dna_scored_match
// edit-distance mesh and the Hamming mesh of the same reads under their
// alignment costs and under random weights, and the shapes the bound and the
// pruned form must treat with care (pruneShapes).
func TestThresholdPruneExact(t *testing.T) {
	var cases []*pruneCase
	for _, c := range simtest.Cases(t) {
		cases = append(cases, newPruneCase(c.Name, c.NFA, simtest.RandomWeights(c.NFA, 1), c.Input))
	}
	meshes := map[string]*pruneCase{}
	for name, build := range map[string]func([][]byte, int, workload.Costs, float64) (*automata.NFA, *automata.Weights, error){
		"edit-distance mesh": workload.ScoredLevenshtein, "Hamming mesh": workload.ScoredHamming,
	} {
		n, w, input := readMesh(t, build)
		meshes[name] = newPruneCase(name, n, w, input)
		cases = append(cases, meshes[name], newPruneCase(name+", random weights", n, simtest.RandomWeights(n, 2), input))
	}

	var pruned, prunedActive, prunedResidual int
	for _, pc := range cases {
		open, seen := pc.open(t)
		full, err := sim.Compile(pc.n)
		if err != nil {
			t.Fatal(err)
		}
		ths := quantiles(open)
		if m, ok := meshes[pc.name]; ok {
			ths = append(ths, m.w.Threshold)
		}
		for _, th := range ths {
			c := pc.check(t, open, th)
			for w, d := range c.dead {
				pruned += bitvec.Words{d}.Count()
				prunedActive += bitvec.Words{d & seen[w]}.Count()
			}
			prunedResidual += full.ResidualStates() - c.kernel.ResidualStates()
		}
	}
	if pruned == 0 || prunedActive == 0 || prunedResidual == 0 {
		t.Fatalf("the cases pruned %d states, %d of them active at the open threshold, %d residual: the pin bites on nothing",
			pruned, prunedActive, prunedResidual)
	}
	mesh := meshes["edit-distance mesh"]
	if c := mesh.compile(t, mesh.w.Threshold); 2*c.dead.Count() < mesh.n.NumStates() {
		t.Errorf("the dna_scored_match mesh prunes %d of its %d states, want most", c.dead.Count(), mesh.n.NumStates())
	}

	for _, sh := range pruneShapes() {
		open, _ := sh.open(t)
		if len(open) == 0 {
			t.Fatalf("%s reports nothing at the open threshold: the input is inert", sh.name)
		}
		c := sh.check(t, open, sh.w.Threshold)
		var dead []automata.StateID
		c.dead.ForEach(func(i int) { dead = append(dead, automata.StateID(i)) })
		if !slices.Equal(dead, sh.dead) {
			t.Errorf("%s: pruned %v, want %v", sh.name, dead, sh.dead)
		}
		got, _ := c.run(sh.input)
		if want := naiveScoredRun(sh.n, sh.w, sh.input); !slices.Equal(got, want) {
			t.Errorf("%s: reports %v, the scalar reference's %v", sh.name, got, want)
		}
	}
}

// A scored form's Stats count the automaton its engine steps: the binary
// kernel's Stats whenever nothing is threshold-dead, and otherwise those of
// the binary kernel of the sub-automaton the live states induce — a dead
// state is neither enabled nor active. On the dna_scored_match mesh at its
// threshold that is fewer enabled states than the full kernel's, and the
// states the pruning leaves without an in-edge are heads, which settle.
func TestScoredStatsCountLiveStates(t *testing.T) {
	var cases []*pruneCase
	for _, c := range simtest.Cases(t) {
		cases = append(cases, newPruneCase(c.Name, c.NFA, simtest.RandomWeights(c.NFA, 1), c.Input))
	}
	n, w, input := readMesh(t, workload.ScoredLevenshtein)
	mesh := newPruneCase("edit-distance mesh", n, w, input)
	cases = append(cases, mesh)
	for _, sh := range pruneShapes() {
		cases = append(cases, sh.pruneCase)
	}

	var whole, pruned int
	for _, pc := range cases {
		open, _ := pc.open(t)
		for _, th := range append(quantiles(open), pc.w.Threshold) {
			c := pc.compile(t, th)
			_, got := c.Run(pc.input)
			stepped := pc.n
			if c.live != nil {
				stepped = pc.n.Induced(c.live)
				pruned++
			} else {
				whole++
			}
			want, err := sim.Compile(stepped)
			if err != nil {
				t.Fatal(err)
			}
			// Reports counts only what clears the gate.
			_, st := want.Run(pc.input)
			if got.Reports, st.Reports = 0, 0; got != st {
				t.Fatalf("%s at threshold %g (%d states pruned): stats %+v, want %+v", pc.name, th, c.dead.Count(), got, st)
			}
		}
	}
	if whole == 0 || pruned == 0 {
		t.Fatalf("%d forms pruned nothing, %d pruned some: the pin bites on one side only", whole, pruned)
	}

	c := mesh.compile(t, mesh.w.Threshold)
	_, scored := c.Run(mesh.input)
	kernel, err := sim.Compile(mesh.n)
	if err != nil {
		t.Fatal(err)
	}
	if _, full := kernel.Run(mesh.input); scored.TotalEnabled >= full.TotalEnabled {
		t.Errorf("the pruned mesh enables %d states over the input, the full kernel %d: want fewer", scored.TotalEnabled, full.TotalEnabled)
	}
	// In the last two shapes the first live state — the state fed only by a
	// dead one, and the start-of-data start — is the one head, settled at its
	// start weight; the state fed only by it settles too, at that weight
	// plus its edge's.
	shapes := pruneShapes()
	for k, want := range []map[int]float64{{0: 4, 1: 3}, {0: 3}} {
		sh := shapes[len(shapes)-2+k]
		if got := settledScores(sh.compile(t, sh.w.Threshold).Compiled); !maps.Equal(got, want) {
			t.Errorf("%s: settled scores %v, want %v", sh.name, got, want)
		}
	}
}

// pruneShape is a hand-built case at its table's threshold with the states
// it must prune.
type pruneShape struct {
	*pruneCase
	dead []automata.StateID
}

// pruneShapes are the shapes random generation rarely reaches:
//   - a positive-weight cycle between the start and a report: every score it
//     carries can still grow, so nothing on or past it is pruned — only a
//     branch off the start that cannot clear the threshold;
//   - the saturation guard: a chain long enough that its score clamps at
//     -ScoreLimit and then climbs back over a threshold just above it, which
//     the path's plain sum never reaches, so nothing may be pruned; and the
//     same weights on a chain too short to clamp, where the bound is exact
//     and prunes every state;
//   - fractional weights, whose sum rounds one way added from the start, as
//     the engine adds it, and another added from both ends, as the bound
//     does: at a threshold between the two, nothing may be pruned;
//   - a start-of-data start, the automaton's only one, whose start weight
//     decides which of its two reporting successors is dead;
//   - a live state whose only in-edge comes from a dead state, which the
//     pruned form steps as a head: a reporting even start, so that the pass
//     skips it and the gate reads its fixed score;
//   - a reporting start-of-data head beside its dead successor.
func pruneShapes() []pruneShape {
	byteOf := func(b byte, start automata.StartKind, report bool) automata.State {
		return automata.ByteMatchState(bitvec.ByteOf(b), start, report)
	}
	// chain is a start-of-data state and one more state per edge weight, the
	// last reporting, all matching byte 0.
	chain := func(name string, edges []float64, threshold float64) *pruneCase {
		n := automata.New(8, 1)
		n.AddState(byteOf(0, automata.StartOfData, false))
		for i := range edges {
			n.AddState(byteOf(0, automata.StartNone, i == len(edges)-1))
			n.AddEdge(automata.StateID(i), automata.StateID(i+1))
		}
		w := automata.NewWeights(n)
		for i, x := range edges {
			w.Edge[i][0] = x
		}
		w.Threshold = threshold
		return newPruneCase(name, n, w, make([]byte, n.NumStates()))
	}
	sinking := func(states int) []float64 {
		edges := make([]float64, states-1)
		for i := range edges {
			edges[i] = -automata.WeightLimit
		}
		edges[len(edges)-1] = 10
		return edges
	}
	long := automata.ScoreLimit/automata.WeightLimit + 64
	fractions := []float64{0.1, 0.2, 0.3}

	cyc := automata.New(8, 1)
	a := cyc.AddState(byteOf(0, automata.StartAllInput, false))
	b := cyc.AddState(byteOf(1, automata.StartNone, false))
	c := cyc.AddState(byteOf(1, automata.StartNone, false))
	r := cyc.AddState(byteOf(2, automata.StartNone, true))
	off := cyc.AddState(byteOf(3, automata.StartNone, true))
	cyc.AddEdge(a, b)
	cyc.AddEdge(a, off)
	cyc.AddEdge(b, c)
	cyc.AddEdge(c, b)
	cyc.AddEdge(c, r)
	cycW := automata.NewWeights(cyc)
	cycW.Edge[a][1] = -5 // a -> off
	cycW.Edge[b][0] = 1  // b -> c
	cycW.Edge[c][0] = 1  // c -> b
	cycW.Threshold = 6   // seven trips round the cycle clear it
	cycIn := []byte{0, 1, 1, 2, 0, 3, 0, 1, 1, 1, 1, 1, 1, 1, 1, 2, 0, 3}

	sod := automata.New(8, 1)
	s0 := sod.AddState(byteOf(0, automata.StartOfData, false))
	hi := sod.AddState(byteOf(1, automata.StartNone, true))
	lo := sod.AddState(byteOf(1, automata.StartNone, true))
	sod.AddEdge(s0, hi)
	sod.AddEdge(s0, lo)
	sodW := automata.NewWeights(sod)
	sodW.Start[s0], sodW.Edge[s0][0], sodW.Edge[s0][1] = 3, 1, -10
	sodW.Threshold = 2

	// fed is a reporting even start whose only in-edge comes from a dead
	// all-input start: pruned of it, fed is a head, enabled on even cycles
	// only, and the gate reads its score from the slot NewEngine fills. At
	// the open threshold the dead start also enables it on odd cycles, at a
	// score no threshold above -10 keeps.
	fedBy := automata.New(8, 1)
	feeder := fedBy.AddState(byteOf(0, automata.StartAllInput, false))
	fed := fedBy.AddState(byteOf(1, automata.StartEven, true))
	next := fedBy.AddState(byteOf(2, automata.StartNone, true))
	fedBy.AddEdge(feeder, fed)
	fedBy.AddEdge(fed, next)
	fedW := automata.NewWeights(fedBy)
	fedW.Start[feeder], fedW.Start[fed], fedW.Edge[fed][0] = -10, 4, -1
	fedW.Threshold = 2

	// A reporting start-of-data head, live, and its dead successor.
	head := automata.New(8, 1)
	h0 := head.AddState(byteOf(0, automata.StartOfData, true))
	h1 := head.AddState(byteOf(0, automata.StartNone, true))
	head.AddEdge(h0, h1)
	headW := automata.NewWeights(head)
	headW.Start[h0], headW.Edge[h0][0] = 3, -5
	headW.Threshold = 2

	return []pruneShape{
		{newPruneCase("a positive-weight cycle", cyc, cycW, cycIn), []automata.StateID{off}},
		{chain("a chain that clamps at -ScoreLimit, then climbs", sinking(long), -automata.ScoreLimit+5), nil},
		{chain("a chain too short to clamp", sinking(4), 0), []automata.StateID{0, 1, 2, 3}},
		{chain("fractional weights", fractions, (fractions[0]+fractions[1])+fractions[2]), nil},
		{newPruneCase("a start-of-data start", sod, sodW, []byte{0, 1, 0, 1}), []automata.StateID{lo}},
		{newPruneCase("a live start fed only by a dead one", fedBy, fedW, []byte{1, 2, 0, 1, 2, 0, 1, 1, 0, 1, 2, 1}), []automata.StateID{feeder}},
		{newPruneCase("a reporting start-of-data head", head, headW, []byte{0, 0, 0}), []automata.StateID{h1}},
	}
}

// FuzzThresholdPrune holds the pruning exact on random automata at every
// geometry under random weights and a random threshold: the scored form
// reports what the open threshold reports less the reports below the
// threshold, and no pruned state is ever active. The pruned automaton and
// table validate, and pruning them again prunes nothing (compile).
func FuzzThresholdPrune(f *testing.F) {
	for _, seed := range []struct {
		seed      int64
		states    uint8
		threshold int8
	}{{1, 0, 0}, {2, 6, -3}, {3, 20, 4}, {4, 40, 9}, {5, 12, -12}} {
		f.Add(seed.seed, seed.states, seed.threshold)
	}
	f.Fuzz(func(t *testing.T, seed int64, states uint8, threshold int8) {
		r := rand.New(rand.NewSource(seed))
		n := simtest.RandomNFA(r, int(states%48))
		input := make([]byte, r.Intn(200))
		for i := range input {
			input[i] = byte(r.Intn(256)) & []byte{0x33, 0x11, 0xff}[r.Intn(3)]
		}
		pc := newPruneCase(fmt.Sprintf("seed %d", seed), n, simtest.RandomWeights(n, seed), input)
		open, _ := pc.open(t)
		pc.check(t, open, float64(threshold))
	})
}
