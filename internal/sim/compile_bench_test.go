package sim_test

import (
	"testing"

	"impala/internal/automata"
	"impala/internal/core"
	"impala/internal/sim"
	"impala/internal/workload"
)

// BenchmarkCompile isolates the one-time compilation cost that Run pays up
// front, a loaded machine's included: on the engine benchmarks' automata and
// on the three the serving benchmark's NFA workloads run (snort_nfa_match,
// bro_small_match, exact_dense_stream: each suite at scale 0.02 at the 4-bit
// × 4-stride design point), where the class tables and the start images are
// most of it.
func BenchmarkCompile(b *testing.B) {
	type auto struct {
		name string
		n    *automata.NFA
	}
	autos := []auto{{"low", sim.LowActivityNFA()}, {"high", sim.HighActivityNFA()}, {"sparse", sim.SparseActivityNFA()}}
	for _, suite := range []string{"Snort", "Bro217", "ExactMatch"} {
		bench, ok := workload.Get(suite)
		if !ok {
			b.Fatalf("no %s generator in the workload suite", suite)
		}
		src, err := bench.Generate(0.02, 1)
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.Compile(src, core.Config{TargetBits: 4, StrideDims: 4})
		if err != nil {
			b.Fatal(err)
		}
		autos = append(autos, auto{suite, res.NFA})
	}
	for _, a := range autos {
		b.Run(a.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Compile(a.n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
