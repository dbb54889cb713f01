package score

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"impala/internal/automata"
	"impala/internal/bitvec"
	"impala/internal/core"
	"impala/internal/obs"
	"impala/internal/sim"
	"impala/internal/sim/simtest"
	"impala/internal/workload"
)

// naiveScoredRun is an independent, deliberately simple reference for the
// scored semantics (every state visited every cycle, per-state scalar
// max-plus, no bitsets): the redundancy that keeps the optimized engine
// honest.
func naiveScoredRun(n *automata.NFA, w *automata.Weights, input []byte) []sim.Report {
	syms := sim.SubSymbols(n.Bits, input)
	S := n.Stride
	totalBits := len(syms) * n.Bits
	cycles := (len(syms) + S - 1) / S

	type ie struct {
		from automata.StateID
		w    float64
	}
	in := make([][]ie, len(n.States))
	for q := range n.States {
		for j, r := range n.States[q].Out {
			in[r] = append(in[r], ie{automata.StateID(q), w.Edge[q][j]})
		}
	}

	// on[q] says state q was active last cycle, score[q] with what score.
	on, score := make([]bool, len(n.States)), make([]float64, len(n.States))
	nextOn, nextScore := make([]bool, len(n.States)), make([]float64, len(n.States))
	var reports []sim.Report
	for t := 0; t < cycles; t++ {
		chunk := make([]byte, S)
		for i := 0; i < S; i++ {
			if p := t*S + i; p < len(syms) {
				chunk[i] = syms[p]
			}
		}
		clear(nextOn)
		for i := range n.States {
			s := &n.States[i]
			if !s.Match.Has(chunk) {
				continue
			}
			enabled := false
			best := math.Inf(-1)
			switch s.Start {
			case automata.StartAllInput:
				enabled = true
				best = w.Start[i]
			case automata.StartOfData:
				if t == 0 {
					enabled = true
					best = w.Start[i]
				}
			case automata.StartEven:
				if t%2 == 0 {
					enabled = true
					best = w.Start[i]
				}
			}
			for _, e := range in[i] {
				if on[e.from] {
					enabled = true
					if v := satAdd(score[e.from], e.w); v > best {
						best = v
					}
				}
			}
			if !enabled {
				continue
			}
			nextOn[i], nextScore[i] = true, best
			if s.Report {
				bitPos := (t*S + s.ReportOffset) * n.Bits
				if bitPos <= totalBits && best >= w.Threshold {
					reports = append(reports, sim.Report{BitPos: bitPos, Code: s.ReportCode, State: automata.StateID(i), Score: best})
				}
			}
		}
		on, nextOn = nextOn, on
		score, nextScore = nextScore, score
	}
	sim.SortReports(reports)
	return reports
}

// randNFA8 generates a random small 8-bit stride-1 automaton with loops,
// ranges and branches.
func randNFA8(r *rand.Rand, nStates int) *automata.NFA {
	n := automata.New(8, 1)
	for i := 0; i < nStates; i++ {
		var set bitvec.ByteSet
		switch r.Intn(3) {
		case 0:
			set = bitvec.ByteOf(byte(r.Intn(4)))
		case 1:
			lo := byte(r.Intn(6))
			set = bitvec.ByteRange(lo, lo+byte(r.Intn(4)))
		default:
			for k := 0; k < 1+r.Intn(3); k++ {
				set = set.Add(byte(r.Intn(8)))
			}
		}
		kind := automata.StartNone
		if i == 0 || r.Intn(4) == 0 {
			kind = automata.StartAllInput
		}
		n.AddState(automata.State{
			Match:      automata.MatchSet{automata.Rect{set}},
			Start:      kind,
			Report:     r.Intn(3) == 0 || i == nStates-1,
			ReportCode: i,
		})
	}
	for i := 0; i < nStates-1; i++ {
		n.AddEdge(automata.StateID(i), automata.StateID(i+1))
	}
	for k := 0; k < nStates; k++ {
		n.AddEdge(automata.StateID(r.Intn(nStates)), automata.StateID(r.Intn(nStates)))
	}
	n.DedupEdges()
	return n
}

// randWeights builds a random integer weight table including heterogeneous
// in-edge weights (the scalar fallback path).
func randWeights(r *rand.Rand, n *automata.NFA) *automata.Weights {
	w := automata.NewWeights(n)
	for i := range w.Edge {
		for j := range w.Edge[i] {
			w.Edge[i][j] = float64(r.Intn(11) - 5)
		}
		w.Start[i] = float64(r.Intn(7) - 3)
	}
	w.Threshold = -automata.ScoreLimit // see every report; tests clamp it later
	return w
}

func randInput(r *rand.Rand, length int) []byte {
	in := make([]byte, length)
	for i := range in {
		in[i] = byte(r.Intn(8))
	}
	return in
}

// scoredCase is one hand-built weighted automaton with an input that drives
// it.
type scoredCase struct {
	name  string
	n     *automata.NFA
	w     *automata.Weights
	input []byte
	// wantTail, when set, is the scores the last reports must carry.
	wantTail []float64
}

// handBuiltCases are the shapes random generation does not reach: a target
// whose predecessors span two words of the active vector (70 of them, once
// with one weight on every in-edge and once with mixed weights), a state
// that is a start candidate and reached from a predecessor in the same cycle
// (either side can win the max), and accumulation that saturates at
// +ScoreLimit and at -ScoreLimit through an in-edge.
func handBuiltCases() []scoredCase {
	r := rand.New(rand.NewSource(5))
	byteOf := func(b byte, start automata.StartKind, report bool) automata.State {
		return automata.ByteMatchState(bitvec.ByteOf(b), start, report)
	}

	fan := automata.New(8, 1)
	const sources = 70
	for i := 0; i < sources; i++ {
		fan.AddState(byteOf(byte(i%8), automata.StartAllInput, false))
	}
	anyByte := automata.ByteMatchState(bitvec.ByteRange(0, 7), automata.StartNone, true)
	uniform, mixed := fan.AddState(anyByte), fan.AddState(anyByte)
	fan.States[uniform].ReportCode, fan.States[mixed].ReportCode = 1, 2
	for i := 0; i < sources; i++ {
		fan.AddEdge(automata.StateID(i), uniform)
		fan.AddEdge(automata.StateID(i), mixed)
	}
	fanW := automata.NewWeights(fan)
	for i := 0; i < sources; i++ {
		fanW.Start[i] = float64((i*37)%sources - sources/2)
		fanW.Edge[i][0] = 3
		fanW.Edge[i][1] = float64(i%5 - 2)
	}
	fanW.Threshold = -automata.ScoreLimit

	both := automata.New(8, 1)
	gain := both.AddState(byteOf(0, automata.StartAllInput, true))
	loss := both.AddState(byteOf(1, automata.StartAllInput, true))
	both.States[gain].ReportCode, both.States[loss].ReportCode = 1, 2
	both.AddEdge(gain, gain)
	both.AddEdge(loss, loss)
	bothW := automata.NewWeights(both)
	bothW.Start[gain], bothW.Edge[gain][0] = 1, 2  // the predecessor wins
	bothW.Start[loss], bothW.Edge[loss][0] = 0, -5 // the start weight wins
	bothW.Threshold = -automata.ScoreLimit

	sat := automata.New(8, 1)
	head := sat.AddState(byteOf(0, automata.StartOfData, false))
	up := sat.AddState(byteOf(0, automata.StartNone, true))
	down := sat.AddState(byteOf(0, automata.StartNone, true))
	sat.States[up].ReportCode, sat.States[down].ReportCode = 1, 2
	sat.AddEdge(head, up)
	sat.AddEdge(head, down)
	sat.AddEdge(up, up)
	sat.AddEdge(down, down)
	satW := automata.NewWeights(sat)
	satW.Edge[head][0], satW.Edge[up][0] = automata.WeightLimit, automata.WeightLimit
	satW.Edge[head][1], satW.Edge[down][0] = -automata.WeightLimit, -automata.WeightLimit
	satW.Threshold = -automata.ScoreLimit

	return []scoredCase{
		{name: "fan-in across two words", n: fan, w: fanW, input: randInput(r, 200)},
		{name: "start-enabled and reached", n: both, w: bothW, input: []byte{0, 0, 0, 1, 1, 1, 0, 1, 0, 0}},
		{name: "saturation through an in-edge", n: sat, w: satW,
			input:    make([]byte, automata.ScoreLimit/automata.WeightLimit+64),
			wantTail: []float64{automata.ScoreLimit, -automata.ScoreLimit}},
	}
}

// The compiled scored engine must agree exactly with the scalar reference
// on random automata with heterogeneous random weights — scores included —
// and on the hand-built shapes.
func TestScoredMatchesNaive(t *testing.T) {
	for _, tc := range handBuiltCases() {
		c, err := Compile(tc.n, tc.w)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, _ := c.Run(tc.input)
		want := naiveScoredRun(tc.n, tc.w, tc.input)
		if len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: scored engine diverged from reference (%d vs %d reports)", tc.name, len(got), len(want))
		}
		for i, want := range tc.wantTail {
			if r := got[len(got)-len(tc.wantTail)+i]; r.Score != want {
				t.Fatalf("%s: report %+v scores %g, want %g", tc.name, r, r.Score, want)
			}
		}
	}
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := randNFA8(r, 2+r.Intn(7))
		w := randWeights(r, n)
		w.Threshold = float64(r.Intn(9) - 4)
		c, err := Compile(n, w)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 3; rep++ {
			input := randInput(r, r.Intn(40))
			got, _ := c.Run(input)
			want := naiveScoredRun(n, w, input)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: scored engine diverged from reference\n got: %v\nwant: %v", trial, got, want)
			}
		}
	}
}

// Scores must survive the V-TeSS pipeline exactly: for every (position,
// code), the best score reported by the strided scored machine equals the
// best score of the original 8-bit automaton under the scalar reference —
// across squash and strides 2 and 4.
func TestScoredCompilePreservesBestScores(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	geoms := []core.Config{
		{TargetBits: 8, StrideDims: 1},
		{TargetBits: 4, StrideDims: 1},
		{TargetBits: 4, StrideDims: 2},
		{TargetBits: 4, StrideDims: 4},
	}
	type key struct {
		pos, code int
	}
	bestOf := func(reports []sim.Report) map[key]float64 {
		m := map[key]float64{}
		for _, r := range reports {
			k := key{r.BitPos, r.Code}
			if v, ok := m[k]; !ok || r.Score > v {
				m[k] = r.Score
			}
		}
		return m
	}
	for trial := 0; trial < 12; trial++ {
		n := randNFA8(r, 2+r.Intn(5))
		w := randWeights(r, n)
		input := randInput(r, 8+r.Intn(24))
		want := bestOf(naiveScoredRun(n, w, input))
		for _, cfg := range geoms {
			cfg.Weights = w
			res, err := core.Compile(n, cfg)
			if err != nil {
				t.Fatal(err)
			}
			c, err := Compile(res.NFA, res.Weights)
			if err != nil {
				t.Fatal(err)
			}
			reports, _ := c.Run(input)
			got := bestOf(reports)
			if len(got) != len(want) {
				t.Fatalf("trial %d cfg %d/%d: %d scored (pos,code) groups, want %d\n got %v\nwant %v",
					trial, cfg.TargetBits, cfg.StrideDims, len(got), len(want), got, want)
			}
			for k, v := range want {
				gv, ok := got[k]
				if !ok || gv != v {
					t.Fatalf("trial %d cfg %d/%d: best score at %+v = %v, want %v",
						trial, cfg.TargetBits, cfg.StrideDims, k, gv, v)
				}
			}
		}
	}
}

// Steady-state Feed through the scored lane allocates nothing, with the
// stream and score metrics off and live, and neither does a pooled Run of
// input no state matches (randNFA8 matches bytes 0–8 only).
func TestScoredFeedAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	n := randNFA8(r, 6)
	c, err := Compile(n, randWeights(r, n))
	if err != nil {
		t.Fatal(err)
	}
	quiet := bytes.Repeat([]byte("quiet "), 1000)
	simtest.AllocFree(t, simtest.SessionForm(c.NewSession, c.AppendRun), randInput(r, 50), quiet, EnableMetrics)
}

// The threshold gate suppresses the reports a live state makes with a score
// below the threshold, and counts them; a threshold-dead state is pruned
// before Compile (automata.PruneThreshold) and makes no reports, so the gate
// has none of its to suppress or count.
func TestThresholdRejects(t *testing.T) {
	reg := obs.NewRegistry()
	EnableMetrics(reg)
	t.Cleanup(func() { EnableMetrics(nil) })
	counters := func(want map[string]int64) {
		t.Helper()
		snap := reg.Snapshot()
		for name, v := range want {
			if got := snap.Counters[name]; got != v {
				t.Errorf("%s = %d, want %d", name, got, v)
			}
		}
	}

	// "xc" scores 5 after an "a" and -10 as a start of its own: every state
	// is live (5 clears the threshold 3), and the input's second hit falls
	// below it.
	n := automata.New(8, 1)
	a := n.AddState(automata.ByteMatchState(bitvec.ByteOf('a'), automata.StartAllInput, false))
	x := n.AddState(automata.ByteMatchState(bitvec.ByteOf('x'), automata.StartAllInput, false))
	c := n.AddState(automata.ByteMatchState(bitvec.ByteOf('c'), automata.StartNone, true))
	n.States[c].ReportCode = 1
	n.AddEdge(a, x)
	n.AddEdge(x, c)
	w := automata.NewWeights(n)
	w.Edge[a][0], w.Start[x], w.Threshold = 5, -10, 3
	sc, err := Compile(n, w)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, live := automata.PruneThreshold(n, w); live != nil {
		t.Fatalf("%d live states pruned", n.NumStates()-len(live))
	}
	input := []byte("axcxc")
	reports, st := sc.Run(input)
	if len(reports) != 1 || reports[0].Score != 5 || st.Reports != 1 {
		t.Fatalf("threshold 3: reports %v, %d counted, want the one scoring 5", reports, st.Reports)
	}
	counters(map[string]int64{"score_threshold_rejects_total": 1, "score_reports_total": 1, "score_scored_bytes_total": int64(len(input))})

	// "ab" scores 1 at best (every edge weighs 1, the start 0): at threshold
	// 100 both its states are dead, so its hits are never formed — the gate
	// counts no reject — and at threshold 1 both clear it.
	lit := automata.New(8, 1)
	lit.AddLiteral("ab", automata.StartAllInput, 1)
	lw := automata.NewWeights(lit)
	for i := range lw.Edge {
		for j := range lw.Edge[i] {
			lw.Edge[i][j] = 1
		}
	}
	lw.Threshold = 100
	sub, sw, kept := automata.PruneThreshold(lit, lw)
	if kept == nil || len(kept) != 0 {
		t.Fatalf("threshold 100 keeps %v of the literal's %d states, want none", kept, lit.NumStates())
	}
	dead, err := Compile(sub, sw)
	if err != nil {
		t.Fatal(err)
	}
	input = []byte("abxab")
	if reports, st = dead.Run(input); len(reports) != 0 || st.Reports != 0 || st.TotalActive != 0 {
		t.Fatalf("threshold 100: reports %v, stats %+v", reports, st)
	}
	counters(map[string]int64{"score_threshold_rejects_total": 1, "score_reports_total": 1})

	lw.Threshold = 1
	live, err := Compile(lit, lw)
	if err != nil {
		t.Fatal(err)
	}
	reports, _ = live.Run(input)
	if len(reports) != 2 || reports[0].Score != 1 || reports[1].Score != 1 {
		t.Fatalf("threshold 1: got %v", reports)
	}
	counters(map[string]int64{"score_threshold_rejects_total": 1, "score_reports_total": 3})
}

// Compile must reject nil and invalid weight tables.
func TestCompileRejectsBadWeights(t *testing.T) {
	n := automata.New(8, 1)
	n.AddLiteral("ab", automata.StartAllInput, 1)
	if _, err := Compile(n, nil); err == nil {
		t.Fatal("nil weights accepted")
	}
	w := automata.NewWeights(n)
	w.Edge[0] = w.Edge[0][:0:0]
	w.Edge[0] = append(w.Edge[0], math.NaN())
	if _, err := Compile(n, w); err == nil {
		t.Fatal("NaN weight accepted")
	}
}

// Saturation: chained +WeightLimit edges must clamp at ScoreLimit, not
// overflow or lose max-plus ordering.
func TestScoreSaturation(t *testing.T) {
	n := automata.New(8, 1)
	s0 := n.AddState(automata.ByteMatchState(bitvec.ByteOf('a'), automata.StartAllInput, false))
	s1 := n.AddState(automata.ByteMatchState(bitvec.ByteOf('a'), automata.StartNone, true))
	n.States[s1].ReportCode = 1
	n.AddEdge(s0, s1)
	n.AddEdge(s1, s1)
	w := automata.NewWeights(n)
	w.Edge[0][0] = automata.WeightLimit
	w.Edge[1][0] = automata.WeightLimit
	c, err := Compile(n, w)
	if err != nil {
		t.Fatal(err)
	}
	// Long run of 'a': the self loop keeps adding WeightLimit; the score
	// must saturate exactly at ScoreLimit.
	input := make([]byte, 2000)
	for i := range input {
		input[i] = 'a'
	}
	reports, _ := c.Run(input)
	if len(reports) == 0 {
		t.Fatal("no reports")
	}
	last := reports[len(reports)-1]
	if last.Score != automata.ScoreLimit {
		t.Fatalf("saturated score = %g, want %d", last.Score, int64(automata.ScoreLimit))
	}
}

// Paper scale: a weighted edit-distance mesh of more than 50,000 states. The
// scored form is linear in states and edges — a dense predecessor matrix
// over these states would take states²/8 bytes, more than 300 MB — and
// still agrees with the scalar reference.
func TestScoredPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a 50,000-state weighted mesh")
	}
	const alphabet = "ACGT"
	r := rand.New(rand.NewSource(11))
	pats := workload.RandomPatterns(r, 700, 12, alphabet)
	n, w, err := workload.ScoredLevenshtein(pats, 2, workload.DefaultAlignCosts, 5)
	if err != nil {
		t.Fatal(err)
	}
	if n.NumStates() < 50000 {
		t.Fatalf("mesh has %d states, want >= 50,000", n.NumStates())
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c, err := Compile(n, w)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if live := int64(after.HeapAlloc) - int64(before.HeapAlloc); live > 64<<20 {
		t.Fatalf("Compile of %d states keeps %d MB live, want < 64", n.NumStates(), live>>20)
	}
	input := make([]byte, 4<<10)
	for i := range input {
		input[i] = alphabet[r.Intn(len(alphabet))]
	}
	for off := 0; off+12 <= len(input); off += 40 {
		copy(input[off:], pats[r.Intn(len(pats))])
	}
	got, _ := c.Run(input)
	want := naiveScoredRun(n, w, input)
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("scored engine diverged from reference at scale (%d vs %d reports)", len(got), len(want))
	}
	runtime.KeepAlive(c)
}
