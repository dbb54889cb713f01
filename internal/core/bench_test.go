package core

import (
	"fmt"
	"math/rand"
	"testing"

	"impala/internal/bitvec"
	"impala/internal/espresso"
	"impala/internal/sim"
	"impala/internal/workload"
)

var benchWorkers = []int{1, 2, 8}

// BenchmarkCompile times the full V-TeSS pipeline at the Impala 4-stride
// design point over a large synthetic automaton, across worker counts plus
// the uncached baseline (the cover cache is the dominant single-core win).
func BenchmarkCompile(b *testing.B) {
	n := randNFA(rand.New(rand.NewSource(11)), 600)
	for _, w := range benchWorkers {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Compile(n, Config{TargetBits: 4, StrideDims: 4, Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Compile(n, Config{TargetBits: 4, StrideDims: 4, Workers: 1, DisableCache: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRefine isolates the Espresso refinement stage (the heaviest
// per-state work of the pipeline) with a fresh cover cache per iteration.
func BenchmarkRefine(b *testing.B) {
	n := randNFA(rand.New(rand.NewSource(12)), 600)
	st, err := Stride(n, 4, 4, espresso.Options{}, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range benchWorkers {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := st.Clone()
				esp := espresso.Options{Cache: espresso.NewCoverCache()}
				if _, err := Refine(c, esp, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// liveWords is a sim.Tracer counting cycles and the non-zero words of the
// enable vector: what a cycle of the word-sparse kernel pays for.
type liveWords struct{ words, cycles int }

func (l *liveWords) OnCycle(_ int, enabled, _ bitvec.Words) {
	for _, x := range enabled {
		if x != 0 {
			l.words++
		}
	}
	l.cycles++
}

// BenchmarkServedKernels times the bit-parallel kernel alone on the three
// automata the serving benchmark's NFA workloads run (snort_nfa_match,
// bro_small_match, exact_dense_stream: each suite at scale 0.02, compiled at
// the 4-bit × 4-stride design point) over one request body's worth of input —
// the kernel number behind a served scan_ns_per_byte, without the HTTP
// harness around it.
func BenchmarkServedKernels(b *testing.B) {
	for _, tc := range []struct {
		suite string
		bytes int
	}{
		{"Snort", 64 << 10},
		{"Bro217", 1 << 10},
		{"ExactMatch", 64 << 10},
	} {
		b.Run(tc.suite, func(b *testing.B) {
			bench, ok := workload.Get(tc.suite)
			if !ok {
				b.Fatalf("no %s generator in the workload suite", tc.suite)
			}
			src, err := bench.Generate(0.02, 1)
			if err != nil {
				b.Fatal(err)
			}
			res, err := Compile(src, Config{TargetBits: 4, StrideDims: 4})
			if err != nil {
				b.Fatal(err)
			}
			c, err := sim.Compile(res.NFA)
			if err != nil {
				b.Fatal(err)
			}
			input := workload.Input(src, tc.bytes, 1)
			var live liveWords
			c.NewEngine().Run(input, &live)
			c.Run(input) // a pooled engine with its session, as a served request finds it
			b.SetBytes(int64(len(input)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Run(input)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*live.cycles), "ns/cycle")
			b.ReportMetric(float64(live.words)/float64(live.cycles), "live-words/cycle")
		})
	}
}
