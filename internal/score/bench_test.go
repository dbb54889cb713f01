package score

import (
	"math/rand"
	"testing"

	"impala/internal/automata"
	"impala/internal/bitvec"
	"impala/internal/core"
	"impala/internal/sim"
	"impala/internal/workload"
)

// dnaMesh is the benchmark's dna_scored_match machine: 8 random DNA 12-mers
// as edit-distance meshes (distance 2, default alignment costs, threshold
// admitting single-edit reads) compiled to 4-bit stride 4 and pruned of its
// threshold-dead states, as core.Compile prunes it, and a 16 KiB body of
// background with a perfect or once-substituted read every few dozen bytes.
// full is the mesh before pruning.
func dnaMesh(tb testing.TB) (c *Compiled, full *automata.NFA, input []byte) {
	tb.Helper()
	full, w, input := readMesh(tb, workload.ScoredLevenshtein)
	sub, sw, _ := automata.PruneThreshold(full, w)
	c, err := Compile(sub, sw)
	if err != nil {
		tb.Fatal(err)
	}
	return c, full, input
}

// readMesh is dnaMesh's automaton, weight table and body before pruning,
// with the meshes build makes (workload.ScoredLevenshtein or
// workload.ScoredHamming) of the same reads at the same threshold. The mesh
// is compiled at the open threshold, which prunes nothing, and the table then
// carries the real one.
func readMesh(tb testing.TB, build func([][]byte, int, workload.Costs, float64) (*automata.NFA, *automata.Weights, error)) (*automata.NFA, *automata.Weights, []byte) {
	tb.Helper()
	const alphabet = "ACGT"
	r := rand.New(rand.NewSource(1))
	pats := workload.RandomPatterns(r, 8, 12, alphabet)
	costs := workload.DefaultAlignCosts
	threshold := 11*costs.Match + costs.Gap
	n, w, err := build(pats, 2, costs, -automata.ScoreLimit)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := core.Compile(n, core.Config{TargetBits: 4, StrideDims: 4, Weights: w})
	if err != nil {
		tb.Fatal(err)
	}
	res.Weights.Threshold = threshold
	input := make([]byte, 16<<10)
	for i := range input {
		input[i] = alphabet[r.Intn(len(alphabet))]
	}
	for off := 8; off+12 <= len(input); off += 18 + r.Intn(24) {
		copy(input[off:], pats[r.Intn(len(pats))])
		if r.Intn(2) == 0 {
			input[off+r.Intn(12)] = alphabet[r.Intn(len(alphabet))]
		}
	}
	return res.NFA, res.Weights, input
}

// cycleTracer sums, over every cycle, the non-zero words of the enable
// vector — what a cycle of the word-sparse kernel pays for when it sweeps its
// start words, as a traced kernel does — and, given the scored form whose
// live kernel it traces, the active states, the settled ones among them and
// their in-edges: the work propagate does and the work it skips.
type cycleTracer struct {
	c                                     *Compiled
	cycles, words, active, settled, edges int
}

func (tr *cycleTracer) OnCycle(_ int, enabled, active bitvec.Words) {
	tr.cycles++
	for _, x := range enabled {
		if x != 0 {
			tr.words++
		}
	}
	if tr.c == nil {
		return
	}
	active.ForEach(func(i int) {
		tr.active++
		if tr.c.settled.Get(i) {
			tr.settled++
		}
		tr.edges += int(tr.c.inOff[i+1] - tr.c.inOff[i])
	})
}

// BenchmarkScoredRun is the loop propagate is tuned against: one-shot
// execution of the dna_scored_match mesh, split four ways, each in ns/B —
//   - kernel: the full binary kernel alone, reports and all;
//   - live kernel: the kernel the scored engine steps, that of the
//     sub-automaton without the threshold-dead states, alone;
//   - kernel+lane: that kernel with propagate attached, its reports ungated;
//   - scored: the full Run, threshold gate included.
//
// kernel less live kernel is what pruning the threshold-dead states saves
// the kernel; kernel+lane less live kernel is the scoring pass. scored
// differs from kernel+lane by the gate: a compare per structural report,
// less the collecting and sorting of the reports it rejects. Each reports
// its own active and enabled states per cycle and the words its kernel's
// enable vector holds per cycle when swept (swept-words/cycle), beside the
// states the scored engine can activate (live-states), the in-edges per
// active state, the share of the active states that are settled, which the
// pass skips, the unsettled states active per cycle, which it scores, and
// lane-share, the share of cycles on which the kernel called the pass: those
// with an unsettled state active or a report.
func BenchmarkScoredRun(b *testing.B) {
	c, mesh, input := dnaMesh(b)
	kernel, err := sim.Compile(mesh)
	if err != nil {
		b.Fatal(err)
	}
	full, tr := &cycleTracer{}, &cycleTracer{c: c}
	sim.RunBatch(kernel.NewEngine(), input, 0, full)
	sim.RunBatch(c.NewEngine().kernel, input, 0, tr)
	live := c.NFA().NumStates()
	e, calls := c.NewEngine(), 0
	e.kernel.SetLane(func(t int) { calls++; e.propagate(t) })
	_, st := sim.RunBatch(e, input, 0, nil)
	laneShare := float64(calls) / float64(st.Cycles)
	for _, form := range []struct {
		name  string
		run   func([]byte) ([]sim.Report, sim.Stats)
		words *cycleTracer
	}{
		{"kernel", kernel.Run, full},
		{"live kernel", c.kernel.Run, tr},
		{"kernel+lane", sim.NewPool(func() sim.Core { return c.NewEngine().kernel }).Run, tr},
		{"scored", c.Run, tr},
	} {
		b.Run(form.name, func(b *testing.B) {
			b.SetBytes(int64(len(input)))
			var st sim.Stats
			for i := 0; i < b.N; i++ {
				_, st = form.run(input)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(input)), "ns/B")
			b.ReportMetric(float64(live), "live-states")
			b.ReportMetric(st.ActivePerCycleAvg, "active/cycle")
			b.ReportMetric(float64(st.TotalEnabled)/float64(st.Cycles), "enabled/cycle")
			b.ReportMetric(float64(form.words.words)/float64(form.words.cycles), "swept-words/cycle")
			b.ReportMetric(float64(tr.edges)/float64(tr.active), "in-edges/active-state")
			b.ReportMetric(float64(tr.settled)/float64(tr.active), "settled/active")
			b.ReportMetric(float64(tr.active-tr.settled)/float64(tr.cycles), "unsettled/cycle")
			b.ReportMetric(laneShare, "lane-share")
		})
	}
}
