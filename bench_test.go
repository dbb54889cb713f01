package impala_test

// One benchmark per paper table/figure (regenerating its rows via the
// experiment harness), plus component micro-benchmarks and the ablation
// benches for the design choices DESIGN.md calls out. Custom metrics carry
// the reproduced quantities (overheads, Gbps, ratios) so `go test -bench`
// output doubles as a compact experiment log.

import (
	"bytes"
	"io"
	"runtime"
	"strconv"
	"testing"

	"impala"
	"impala/internal/arch"
	"impala/internal/automata"
	"impala/internal/core"
	"impala/internal/dfa"
	"impala/internal/espresso"
	"impala/internal/exp"
	"impala/internal/place"
	"impala/internal/regexc"
	"impala/internal/sim"
	"impala/internal/sim/simtest"
	"impala/internal/topo"
	"impala/internal/workload"
)

// benchOpts keeps every table/figure bench laptop-scale.
func benchOpts() exp.Options {
	return exp.Options{Scale: 0.01, Seed: 1, InputKB: 16, Strides: []int{1, 2, 4}}
}

func runExperiment(b *testing.B, runner exp.Runner, o exp.Options) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tables, err := runner(o)
		if err != nil {
			b.Fatal(err)
		}
		for _, t := range tables {
			t.Render(io.Discard)
		}
	}
}

// ---- one bench per table/figure ----

func BenchmarkFigure2(b *testing.B)       { runExperiment(b, exp.Figure2, benchOpts()) }
func BenchmarkTable1Compile(b *testing.B) { runExperiment(b, exp.Table1CompileTime, benchOpts()) }

func BenchmarkTable4VTeSS(b *testing.B) {
	o := benchOpts()
	o.Benchmarks = []string{"Bro217", "ExactMatch", "Dotstar06", "Hamming", "CoreRings"}
	o.Strides = []int{1, 2, 4, 8}
	runExperiment(b, exp.Table4VTeSS, o)
}

func BenchmarkTable5Pipeline(b *testing.B) { runExperiment(b, exp.Table5Pipeline, benchOpts()) }

func BenchmarkFig13Throughput(b *testing.B) {
	runExperiment(b, exp.Figure13Throughput, benchOpts())
	imp := arch.Design{Arch: arch.Impala, Bits: 4, Stride: 4}
	ca := arch.Design{Arch: arch.CacheAutomaton, Bits: 8, Stride: 1}
	b.ReportMetric(imp.ThroughputGbps(), "Impala16_Gbps")
	b.ReportMetric(imp.ThroughputGbps()/ca.ThroughputGbps(), "Impala16/CA8")
}

func BenchmarkFig14Area(b *testing.B) {
	runExperiment(b, exp.Figure14Area, benchOpts())
	imp := arch.AreaBreakdown(arch.Design{Arch: arch.Impala, Bits: 4, Stride: 4}, 32*1024)
	ca := arch.AreaBreakdown(arch.Design{Arch: arch.CacheAutomaton, Bits: 8, Stride: 1}, 32*1024)
	b.ReportMetric(ca.StateMatchMM2/imp.StateMatchMM2, "SM_CA/Impala")
}

func BenchmarkFig11ThroughputPerArea(b *testing.B) {
	o := benchOpts()
	o.Benchmarks = []string{"Bro217", "ExactMatch", "Dotstar06", "Snort", "CoreRings"}
	runExperiment(b, exp.Figure11ThroughputPerArea, o)
}

func BenchmarkFig12EnergyPower(b *testing.B) {
	o := benchOpts()
	o.Benchmarks = []string{"Bro217", "ExactMatch"}
	runExperiment(b, exp.Figure12EnergyPower, o)
}

func BenchmarkTable6FPGA(b *testing.B) { runExperiment(b, exp.Table6FPGA, benchOpts()) }

func BenchmarkFig8Utilization(b *testing.B) { runExperiment(b, exp.Figure8Utilization, benchOpts()) }

func BenchmarkFig9Heatmap(b *testing.B) { runExperiment(b, exp.Figure9Heatmap, benchOpts()) }

func BenchmarkFig10G4Placement(b *testing.B) {
	o := benchOpts()
	o.Benchmarks = []string{"Bro217", "Dotstar06"}
	runExperiment(b, exp.Figure10G4, o)
}

func BenchmarkCaseStudyEntityResolution(b *testing.B) {
	runExperiment(b, exp.CaseStudyEntityResolution, benchOpts())
}

// ---- component micro-benchmarks ----

// benchNFA is a mid-size shared compile input.
func benchNFA(b *testing.B) *automata.NFA {
	b.Helper()
	bench, _ := workload.Get("Dotstar06")
	n, err := bench.Generate(0.02, 1)
	if err != nil {
		b.Fatal(err)
	}
	return n
}

func BenchmarkCompileImpala16(b *testing.B) {
	n := benchNFA(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Compile(n, core.Config{TargetBits: 4, StrideDims: 4})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.StateOverhead(n), "state_overhead")
	}
}

func BenchmarkCompileCA(b *testing.B) {
	n := benchNFA(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Compile(n, core.Config{TargetBits: 8, StrideDims: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlacementGA(b *testing.B) {
	n := benchNFA(b)
	res, err := core.Compile(n, core.Config{TargetBits: 4, StrideDims: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := place.Place(res.NFA, place.Options{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if !p.Valid() {
			b.Fatal("placement failed")
		}
	}
}

func BenchmarkEspressoMinimize(b *testing.B) {
	// A representative multi-region refinement instance: overlapping
	// 4-dimensional tiles (Figure 6 style).
	var on automata.MatchSet
	for k := byte(0); k < 6; k++ {
		rect := automata.Rect{
			rangeSet(k, k+4), rangeSet(1, 3), rangeSet(k, 15), automata.Domain(4),
		}
		on = on.Add(rect)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		espresso.Minimize(on, 4, 4, espresso.Options{})
	}
}

func rangeSet(lo, hi byte) (s [4]uint64) {
	for v := lo; v <= hi && v < 16; v++ {
		s[0] |= 1 << v
	}
	return s
}

// BenchmarkMachineThroughput measures the software capsule-level machine's
// scan rate (the hardware's is deterministic: 80 Gbps at 4-stride).
func BenchmarkMachineThroughput(b *testing.B) {
	for _, stride := range []int{2, 4} {
		b.Run("stride"+strconv.Itoa(stride), func(b *testing.B) {
			n := regexc.MustCompile([]regexc.Rule{
				{Pattern: "GET /", Code: 0},
				{Pattern: `\d+\.\d+`, Code: 1},
			})
			res, err := core.Compile(n, core.Config{TargetBits: 4, StrideDims: stride})
			if err != nil {
				b.Fatal(err)
			}
			pl, err := place.Place(res.NFA, place.Options{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			m, err := arch.Build(res.NFA, pl)
			if err != nil {
				b.Fatal(err)
			}
			input := workload.Input(n, 64*1024, 3)
			b.SetBytes(int64(len(input)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Run(input)
			}
		})
	}
}

// BenchmarkLoadMachine measures LoadMachine on the Snort rules at scale 0.01
// sealed four ways — plain, tiered, tiered in 4 shards on a two-domain
// topology, and scored — and on the Hamming meshes at scale 0.03 tiered,
// whose artifact is almost all union-DFA tables, in ns/op, B/op and
// allocs/op, and reports as held-KB the heap one loaded machine keeps once
// the load's garbage is collected.
func BenchmarkLoadMachine(b *testing.B) {
	generate := func(name string, scale float64) *automata.NFA {
		bench, _ := workload.Get(name)
		n, err := bench.Generate(scale, 1)
		if err != nil {
			b.Fatal(err)
		}
		return n
	}
	snort, hamming := generate("Snort", 0.01), generate("Hamming", 0.03)
	for _, c := range []struct {
		name string
		n    *automata.NFA
		cfg  impala.Config
	}{
		{"plain", snort, impala.Config{StrideDims: 4}},
		{"tiered", snort, impala.Config{StrideDims: 4, Tier: true}},
		{"4 shards, tiered, topology", snort, impala.Config{StrideDims: 4, Tier: true, Shards: 4}},
		{"scored", snort, impala.Config{StrideDims: 4, Score: simtest.RandomWeights(snort, 1)}},
		{"Hamming, tiered", hamming, impala.Config{StrideDims: 4, Tier: true}},
	} {
		b.Run(c.name, func(b *testing.B) {
			m, err := impala.CompileAutomaton(c.n, c.cfg)
			if err != nil {
				b.Fatal(err)
			}
			a := m.Artifact()
			if c.cfg.Shards > 0 {
				a.SetTopo(&topo.Sealed{
					Topology:    topo.Topology{Domains: []topo.Domain{{Name: "n0"}, {Name: "n1"}}},
					ShardDomain: []int{0, 1, 0, 1},
				})
			}
			var buf bytes.Buffer
			if err := a.Save(&buf); err != nil {
				b.Fatal(err)
			}
			sealed := buf.Bytes()
			before := liveHeap()
			held, err := impala.LoadMachine(bytes.NewReader(sealed))
			if err != nil {
				b.Fatal(err)
			}
			heldKB := float64(liveHeap()-before) / 1024
			runtime.KeepAlive(held)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := impala.LoadMachine(bytes.NewReader(sealed)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(heldKB, "held-KB")
		})
	}
}

// liveHeap is the heap in use once earlier garbage is gone: two collections,
// as pooled objects take two to be freed.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// BenchmarkFunctionalSimulator compares the two graph-simulator engines —
// the scalar reference Engine and the bit-parallel CompiledEngine that
// sim.Run uses by default — on a regex workload (Dotstar06)
// and a dense-activity mesh workload (Hamming), where the word-level match
// masks and wired-OR successor rows pay off most.
func BenchmarkFunctionalSimulator(b *testing.B) {
	for _, wl := range []struct {
		name  string
		scale float64
	}{{"Dotstar06", 0.02}, {"Hamming", 0.05}} {
		bench, _ := workload.Get(wl.name)
		n, err := bench.Generate(wl.scale, 1)
		if err != nil {
			b.Fatal(err)
		}
		input := workload.Input(n, 64*1024, 3)
		b.Run(wl.name+"/scalar", func(b *testing.B) {
			e, err := sim.NewEngine(n)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(input)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Run(input, nil)
			}
		})
		b.Run(wl.name+"/compiled", func(b *testing.B) {
			c, err := sim.Compile(n)
			if err != nil {
				b.Fatal(err)
			}
			e := c.NewEngine()
			b.SetBytes(int64(len(input)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Run(input, nil)
			}
		})
	}
}

// ---- ablation benches ----

// BenchmarkAblationRefine quantifies Espresso refinement: states with and
// without capsule-legal splitting.
func BenchmarkAblationRefine(b *testing.B) {
	n := benchNFA(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		with, err := core.Compile(n, core.Config{TargetBits: 4, StrideDims: 4})
		if err != nil {
			b.Fatal(err)
		}
		without, err := core.Compile(n, core.Config{TargetBits: 4, StrideDims: 4, DisableRefine: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(with.NFA.NumStates())/float64(without.NFA.NumStates()), "refine_state_cost")
	}
}

// BenchmarkAblationMinimize quantifies the prefix/suffix merge passes.
func BenchmarkAblationMinimize(b *testing.B) {
	n := benchNFA(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		with, err := core.Compile(n, core.Config{TargetBits: 4, StrideDims: 4})
		if err != nil {
			b.Fatal(err)
		}
		without, err := core.Compile(n, core.Config{TargetBits: 4, StrideDims: 4, DisableMinimize: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(without.NFA.NumStates())/float64(with.NFA.NumStates()), "minimize_saving")
	}
}

// BenchmarkAblationPlacement compares BFS-only, repair-only and full GA
// placement on a block-straddling component.
func BenchmarkAblationPlacement(b *testing.B) {
	n := automata.New(8, 1)
	// One 700-state diagonal CC (forces straddling).
	prev := automata.StateID(-1)
	for i := 0; i < 700; i++ {
		kind := automata.StartNone
		if i == 0 {
			kind = automata.StartAllInput
		}
		id := n.AddState(automata.State{
			Match:      automata.MatchSet{automata.Rect{automata.Domain(8)}},
			Start:      kind,
			Report:     i == 699,
			ReportCode: 1,
		})
		if prev >= 0 {
			n.AddEdge(prev, id)
			if i%7 == 0 && i > 20 {
				n.AddEdge(id-10, id)
			}
		}
		prev = id
	}
	variants := []struct {
		name string
		opts place.Options
	}{
		{"bfs", place.Options{Seed: 1, DisableGA: true, DisableRepair: true}},
		{"repair", place.Options{Seed: 1, DisableGA: true}},
		{"full", place.Options{Seed: 1}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := place.Place(n, v.opts)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(p.TotalUncovered), "uncovered")
			}
		})
	}
}

// BenchmarkAblationStrideSweep reproduces the paper's conclusion that
// 4-stride maximizes throughput per area: Gbps/mm² across stride values.
// Hamming has substantial 8-stride state blowup (paper: 22.97x), so the
// metric peaks at 4-stride; benchmarks with trivial 8-stride overhead would
// keep climbing.
func BenchmarkAblationStrideSweep(b *testing.B) {
	bench, _ := workload.Get("Hamming")
	n, err := bench.Generate(0.05, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, stride := range []int{1, 2, 4, 8} {
		b.Run("stride"+strconv.Itoa(stride), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.Compile(n, core.Config{TargetBits: 4, StrideDims: stride})
				if err != nil {
					b.Fatal(err)
				}
				full := int(float64(res.NFA.NumStates()) / 0.05)
				d := arch.Design{Arch: arch.Impala, Bits: 4, Stride: stride}
				b.ReportMetric(arch.ThroughputPerArea(d, full), "Gbps_per_mm2")
			}
		})
	}
}

// BenchmarkSoftwareDFA measures the table-driven DFA baseline's scan rate —
// the software point of comparison for the 10 GB/s hardware line rate.
func BenchmarkSoftwareDFA(b *testing.B) {
	bench, _ := workload.Get("Bro217")
	n, err := bench.Generate(0.05, 1)
	if err != nil {
		b.Fatal(err)
	}
	d, err := dfa.Build(n, dfa.Options{})
	if err != nil {
		b.Fatal(err)
	}
	input := workload.Input(n, 1<<20, 5)
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Run(input)
	}
	b.ReportMetric(float64(d.NumStates()), "dfa_states")
}
