package score

import (
	"math/rand"
	"testing"

	"impala/internal/bitvec"
	"impala/internal/core"
	"impala/internal/sim"
	"impala/internal/workload"
)

// dnaMesh is the benchmark's dna_scored_match machine: 8 random DNA 12-mers
// as edit-distance meshes (distance 2, default alignment costs, threshold
// admitting single-edit reads) compiled to 4-bit stride 4, and a 16 KiB body
// of background with a perfect or once-substituted read every few dozen
// bytes.
func dnaMesh(tb testing.TB) (*Compiled, []byte) {
	tb.Helper()
	const alphabet = "ACGT"
	r := rand.New(rand.NewSource(1))
	pats := workload.RandomPatterns(r, 8, 12, alphabet)
	costs := workload.DefaultAlignCosts
	n, w, err := workload.ScoredLevenshtein(pats, 2, costs, 11*costs.Match+costs.Gap)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := core.Compile(n, core.Config{TargetBits: 4, StrideDims: 4, Weights: w})
	if err != nil {
		tb.Fatal(err)
	}
	c, err := Compile(res.NFA, res.Weights)
	if err != nil {
		tb.Fatal(err)
	}
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
	return c, input
}

// inEdgeTracer sums, over every cycle, the active states and their in-edges
// — the work propagate does.
type inEdgeTracer struct {
	c             *Compiled
	active, edges int
}

func (tr *inEdgeTracer) OnCycle(_ int, _, active bitvec.Words) {
	active.ForEach(func(i int) {
		tr.active++
		tr.edges += int(tr.c.inOff[i+1] - tr.c.inOff[i])
	})
}

// BenchmarkScoredRun is the loop propagate is tuned against: one-shot
// execution of the dna_scored_match mesh, split three ways, each in ns/B —
//   - kernel: the binary kernel alone, reports and all;
//   - kernel+lane: the kernel with propagate attached, its reports ungated;
//   - scored: the full Run, threshold gate included.
//
// kernel+lane less kernel is the scoring pass. scored differs from
// kernel+lane by the gate: a compare per structural report, less the
// collecting and sorting of the reports it rejects.
func BenchmarkScoredRun(b *testing.B) {
	c, input := dnaMesh(b)
	tr := &inEdgeTracer{c: c}
	sim.RunBatch(c.NewEngine(), input, 0, tr)
	for _, form := range []struct {
		name string
		run  func([]byte) ([]sim.Report, sim.Stats)
	}{
		{"kernel", c.kernel.Run},
		{"kernel+lane", sim.NewPool(func() sim.Core { return c.NewEngine().kernel }).Run},
		{"scored", c.Run},
	} {
		b.Run(form.name, func(b *testing.B) {
			b.SetBytes(int64(len(input)))
			for i := 0; i < b.N; i++ {
				form.run(input)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(input)), "ns/B")
			b.ReportMetric(float64(tr.edges)/float64(tr.active), "in-edges/active-state")
		})
	}
}
