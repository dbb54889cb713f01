package exp

import (
	"fmt"
	"runtime"
	"time"

	"impala/internal/sim"
	"impala/internal/workload"
)

// SimulatorSpeed measures the functional simulator's two engines — the
// scalar reference Engine and the bit-parallel CompiledEngine that Run uses
// by default — across the benchmark suite, reporting MB/s and the speedup
// along with the per-cycle activity that explains it. The
// compiled engine's advantage grows with state count and activity (word-
// level mask ANDs and wired-OR successor rows amortize over all states),
// which is why the mesh benchmarks gain the most.
func SimulatorSpeed(o Options) ([]*Table, error) {
	o = o.withDefaults()
	names := o.Benchmarks
	if len(names) == 0 {
		names = []string{"Bro217", "ExactMatch", "Dotstar06", "Ranges05", "Hamming", "Levenshtein", "Snort"}
	}
	t := &Table{
		Title: "Functional simulator engines: scalar reference vs bit-parallel compiled (one core)",
		Header: []string{"benchmark", "states", "residual", "avg active/cycle",
			"scalar MB/s", "compiled MB/s", "speedup"},
	}
	inputBytes := o.InputKB * 1024

	for _, name := range names {
		b, ok := workload.Get(name)
		if !ok {
			return nil, fmt.Errorf("exp: unknown benchmark %q", name)
		}
		n, err := o.generate(b)
		if err != nil {
			return nil, err
		}
		input := workload.Input(n, inputBytes, o.Seed+3)

		e, err := sim.NewEngine(n)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		_, stats := e.Run(input, nil)
		scalarMBs := float64(len(input)) / time.Since(t0).Seconds() / 1e6

		c, err := sim.Compile(n)
		if err != nil {
			return nil, err
		}
		ce := c.NewEngine()
		t0 = time.Now()
		ce.Run(input, nil)
		compiledMBs := float64(len(input)) / time.Since(t0).Seconds() / 1e6

		t.AddRow(name,
			fmt.Sprint(n.NumStates()),
			fmt.Sprint(c.ResidualStates()),
			f1(stats.ActivePerCycleAvg),
			f1(scalarMBs), f1(compiledMBs),
			fmt.Sprintf("%.2fx", compiledMBs/scalarMBs))
	}
	t.AddNote("compiled = per-position symbol mask tables (word-AND match phase) + dense successor matrix (wired-OR transition phase)")
	t.AddNote("residual = states whose multi-rect match set is not position-decomposable, matched on the scalar fallback path")

	sweep, err := streamingSweep(o, names[0])
	if err != nil {
		return nil, err
	}
	return []*Table{t, sweep}, nil
}

// streamingSweep measures the incremental Session/Feed path of the compiled
// engine across chunk sizes — the per-flow streaming regime of a packet
// matcher — reporting throughput and the allocation cost per Feed call
// (which must be zero in steady state: all scratch buffers are
// session-owned and reports go through the sink in place).
func streamingSweep(o Options, name string) (*Table, error) {
	b, ok := workload.Get(name)
	if !ok {
		return nil, fmt.Errorf("exp: unknown benchmark %q", name)
	}
	n, err := o.generate(b)
	if err != nil {
		return nil, err
	}
	input := workload.Input(n, o.InputKB*1024, o.Seed+3)
	c, err := sim.Compile(n)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:  fmt.Sprintf("Streaming session chunk-size sweep (%s, compiled engine)", name),
		Header: []string{"chunk bytes", "MB/s", "allocs/op", "B/op"},
	}
	reports := 0
	s := c.NewSession(func(sim.Report) { reports++ })
	for _, chunk := range []int{64, 256, 1460, 4096, 65536} {
		if chunk > len(input) {
			chunk = len(input)
		}
		feedAll := func() int {
			ops := 0
			for pos := 0; pos < len(input); pos += chunk {
				end := pos + chunk
				if end > len(input) {
					end = len(input)
				}
				s.Feed(input[pos:end])
				ops++
			}
			return ops
		}
		s.Reset()
		feedAll() // warm the session's scratch buffers

		const passes = 4
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		ops := 0
		for p := 0; p < passes; p++ {
			ops += feedAll()
		}
		elapsed := time.Since(t0).Seconds()
		runtime.ReadMemStats(&m1)

		t.AddRow(fmt.Sprint(chunk),
			f1(float64(passes*len(input))/elapsed/1e6),
			fmt.Sprintf("%.1f", float64(m1.Mallocs-m0.Mallocs)/float64(ops)),
			fmt.Sprintf("%.1f", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(ops)))
	}
	t.AddNote("one long-lived session per flow; Feed carries sub-stride parity across chunk boundaries")
	t.AddNote("allocs/op and B/op are per Feed call in steady state (scratch warmed), measured via runtime.MemStats")
	return t, nil
}
