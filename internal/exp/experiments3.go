package exp

import (
	"fmt"

	"impala/internal/arch"
	"impala/internal/core"
	"impala/internal/place"
	"impala/internal/sim"
	"impala/internal/workload"
)

// SystemIntegration reproduces the Section 6 analysis: input/output buffer
// sizing under a 1 MHz host interrupt, and the reporting-rate
// characterization (the paper cites that 10 of 12 ANMLZoo benchmarks
// produce fewer than 0.5 reports per cycle, motivating a 512-entry OB).
func SystemIntegration(o Options) ([]*Table, error) {
	o = o.withDefaults()
	buf := &Table{
		Title:  "Section 6: I/O buffer sizing (1 MHz host interrupt)",
		Header: []string{"design", "cycles/interrupt", "IB bytes", "OB entries", "max reports/cycle"},
	}
	for _, d := range []arch.Design{
		{Arch: arch.Impala, Bits: 4, Stride: 1},
		{Arch: arch.Impala, Bits: 4, Stride: 4},
		{Arch: arch.CacheAutomaton, Bits: 8, Stride: 1},
	} {
		sys := arch.DefaultSystem(d)
		rep := sys.Analyze(0)
		buf.AddRow(d.String(), f1(rep.CyclesPerInterrupt), f1(rep.IBBytes),
			fmt.Sprint(sys.OBEntries), fmt.Sprintf("%.4f", rep.MaxReportsPerCycle))
	}
	buf.AddNote("paper: a 2.5KB IB feeds a 5GHz 4-bit engine between 1MHz interrupts; OB is 512 x 4B entries")

	rates := &Table{
		Title:  "Section 6: reporting rate per benchmark (Impala 16-bit, simulated input)",
		Header: []string{"benchmark", "reports/cycle", "OB ok (<= budget)"},
	}
	imp := arch.Design{Arch: arch.Impala, Bits: 4, Stride: 4}
	sys := arch.DefaultSystem(imp)
	under := 0
	total := 0
	suite, err := o.suite()
	if err != nil {
		return nil, err
	}
	for _, b := range suite {
		n, err := o.generate(b)
		if err != nil {
			return nil, err
		}
		res, err := core.Compile(n, core.Config{TargetBits: 4, StrideDims: 4})
		if err != nil {
			return nil, err
		}
		if _, err := place.Place(res.NFA, place.Options{Seed: o.Seed}); err != nil {
			return nil, err
		}
		input := workload.Input(n, o.InputKB*1024, o.Seed+7)
		_, stats, err := sim.Run(res.NFA, input)
		if err != nil {
			return nil, err
		}
		rate := float64(stats.Reports) / float64(stats.Cycles)
		rep := sys.Analyze(rate)
		ok := "yes"
		if rep.OBOverflow {
			ok = "NO"
		}
		rates.AddRow(b.Name, fmt.Sprintf("%.4f", rate), ok)
		if rate < 0.5 {
			under++
		}
		total++
	}
	rates.AddNote("%d of %d benchmarks report < 0.5 reports/cycle (paper: 10 of 12 ANMLZoo)", under, total)
	rates.AddNote("rates above the OB budget require host-side DMA draining faster than 1 MHz")
	return []*Table{buf, rates}, nil
}
