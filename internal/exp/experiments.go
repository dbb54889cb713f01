package exp

import (
	"fmt"
	"time"

	"impala/internal/arch"
	"impala/internal/automata"
	"impala/internal/core"
	"impala/internal/place"
)

// Figure2 reproduces the normalized histogram of states by accepting-symbol
// count: the observation that drives squashing (paper: 73% single-symbol,
// 86% within 8).
func Figure2(o Options) ([]*Table, error) {
	o = o.withDefaults()
	t := &Table{
		Title:  "Figure 2: states by number of accepting symbols (fractions)",
		Header: []string{"benchmark", "states", "=1", "2-8", "9-32", "33-128", ">128"},
	}
	// One cell per benchmark: generate + stats concurrently, fold in order.
	suite, err := o.suite()
	if err != nil {
		return nil, err
	}
	stats := make([]automata.Stats, len(suite))
	if err := o.forEachCell(len(suite), func(i int) error {
		n, err := o.generate(suite[i])
		if err != nil {
			return err
		}
		stats[i] = n.ComputeStats()
		return nil
	}); err != nil {
		return nil, err
	}
	var total int
	var hist [5]int
	for bi, b := range suite {
		st := stats[bi]
		row := []string{b.Name, fmt.Sprint(st.States)}
		for _, c := range st.MatchSymbolHistogram {
			row = append(row, f2(float64(c)/float64(st.States)))
		}
		t.AddRow(row...)
		for i, c := range st.MatchSymbolHistogram {
			hist[i] += c
		}
		total += st.States
	}
	t.AddRow("TOTAL", fmt.Sprint(total),
		f2(float64(hist[0])/float64(total)),
		f2(float64(hist[1])/float64(total)),
		f2(float64(hist[2])/float64(total)),
		f2(float64(hist[3])/float64(total)),
		f2(float64(hist[4])/float64(total)))
	t.AddNote("paper: 73%% of states accept exactly one symbol; 86%% accept at most eight")
	return []*Table{t}, nil
}

// Table1CompileTime measures the offline compilation cost of the CA design
// point (no transformation, greedy placement) against Impala's 4-stride
// pipeline (V-TeSS + Espresso + GA placement).
func Table1CompileTime(o Options) ([]*Table, error) {
	o = o.withDefaults()
	t := &Table{
		Title:  "Table 1: relative compilation time (this toolchain)",
		Header: []string{"benchmark", "states", "CA compile (ms)", "Impala 4-stride compile (ms)", "ratio"},
	}
	// One cell per benchmark; each cell runs both toolchains end to end so
	// the CA/Impala ratio within a row stays apples-to-apples.
	suite, err := o.suite()
	if err != nil {
		return nil, err
	}
	type cell struct {
		states          int
		caTime, impTime time.Duration
	}
	cells := make([]cell, len(suite))
	if err := o.forEachCell(len(suite), func(i int) error {
		n, err := o.generate(suite[i])
		if err != nil {
			return err
		}

		t0 := time.Now()
		caRes, err := core.Compile(n, core.Config{TargetBits: 8, StrideDims: 1})
		if err != nil {
			return err
		}
		if _, err := place.Place(caRes.NFA, place.Options{Seed: o.Seed, DisableGA: true}); err != nil {
			return err
		}
		caTime := time.Since(t0)

		t0 = time.Now()
		impRes, err := core.Compile(n, core.Config{TargetBits: 4, StrideDims: 4})
		if err != nil {
			return err
		}
		if _, err := place.Place(impRes.NFA, place.Options{Seed: o.Seed}); err != nil {
			return err
		}
		cells[i] = cell{states: n.NumStates(), caTime: caTime, impTime: time.Since(t0)}
		return nil
	}); err != nil {
		return nil, err
	}

	var sumCA, sumImp time.Duration
	for i, b := range suite {
		c := cells[i]
		sumCA += c.caTime
		sumImp += c.impTime
		ratio := float64(c.impTime) / float64(c.caTime+1)
		t.AddRow(b.Name, fmt.Sprint(c.states),
			fmt.Sprint(c.caTime.Milliseconds()), fmt.Sprint(c.impTime.Milliseconds()), f1(ratio))
	}
	t.AddRow("TOTAL", "", fmt.Sprint(sumCA.Milliseconds()), fmt.Sprint(sumImp.Milliseconds()),
		f1(float64(sumImp)/float64(sumCA+1)))
	t.AddNote("paper: AP compiler >3 hours, FPGA synthesis ~1 day, CA (APSim) ~5 minutes, Impala 4-stride ~30 minutes")
	t.AddNote("expected shape: Impala compilation costs several times CA's, both far below AP/FPGA flows")
	return []*Table{t}, nil
}

// Table4VTeSS reproduces the state/transition overhead of squashing and
// striding, normalized to the original 8-bit automaton.
func Table4VTeSS(o Options) ([]*Table, error) {
	o = o.withDefaults()
	hdr := []string{"benchmark"}
	for _, s := range o.Strides {
		hdr = append(hdr, fmt.Sprintf("S%d(%db) states", s, 4*s))
	}
	for _, s := range o.Strides {
		hdr = append(hdr, fmt.Sprintf("S%d trans", s))
	}
	t := &Table{Title: "Table 4: V-TeSS state/transition overhead vs original 8-bit", Header: hdr}

	// The cell grid is benchmark × stride: every compile is independent, so
	// all of them go through the cell semaphore at once.
	suite, err := o.suite()
	if err != nil {
		return nil, err
	}
	type overhead struct{ so, to float64 }
	cells := make([]overhead, len(suite)*len(o.Strides))
	if err := o.forEachCell(len(cells), func(i int) error {
		b, s := suite[i/len(o.Strides)], o.Strides[i%len(o.Strides)]
		n, err := o.generate(b)
		if err != nil {
			return err
		}
		res, err := core.Compile(n, core.Config{TargetBits: 4, StrideDims: s})
		if err != nil {
			return err
		}
		cells[i] = overhead{so: res.StateOverhead(n), to: res.TransitionOverhead(n)}
		return nil
	}); err != nil {
		return nil, err
	}

	sums := make([]float64, len(o.Strides)*2)
	count := 0
	for bi, b := range suite {
		row := []string{b.Name}
		trans := make([]string, 0, len(o.Strides))
		for si := range o.Strides {
			c := cells[bi*len(o.Strides)+si]
			row = append(row, f2(c.so))
			trans = append(trans, f2(c.to))
			sums[si] += c.so
			sums[len(o.Strides)+si] += c.to
		}
		row = append(row, trans...)
		t.AddRow(row...)
		count++
	}
	avg := []string{"AVERAGE"}
	for _, s := range sums {
		avg = append(avg, f2(s/float64(count)))
	}
	t.AddRow(avg...)
	t.AddNote("paper averages — states: S1 2.52, S2 1.12, S4 1.68, S8 8.34; transitions: S1 3.10, S2 1.34, S4 3.97, S8 15.53")
	return []*Table{t}, nil
}

// Table5Pipeline reproduces the pipeline-stage delays and operating
// frequencies.
func Table5Pipeline(o Options) ([]*Table, error) {
	t := &Table{
		Title:  "Table 5: pipeline stage delays and operating frequency",
		Header: []string{"architecture", "state match (ps)", "local switch (ps)", "global switch (ps)", "max freq (GHz)", "operating freq (GHz)"},
	}
	ip := arch.ImpalaPipeline()
	cp := arch.CAPipeline()
	t.AddRow("Impala (14nm)", f1(ip.StateMatchPs), f1(ip.LocalSwitchPs), f1(ip.GlobalSwitchPs),
		f2(ip.MaxFreqGHz()), f2(ip.OperatingFreqGHz()))
	t.AddRow("CA (14nm)", f1(cp.StateMatchPs), f1(cp.LocalSwitchPs), f1(cp.GlobalSwitchPs),
		f2(cp.MaxFreqGHz()), f2(cp.OperatingFreqGHz()))
	t.AddRow("AP (50nm)", "-", "-", "-", f2(arch.APFreqGHz), f2(arch.APFreqGHz))
	t.AddRow("AP (14nm, projected)", "-", "-", "-", f2(arch.APFreq14nmGHz), f2(arch.APFreq14nmGHz))
	t.AddNote("paper: Impala 5.55/5 GHz, CA 4.01/3.6 GHz, AP 0.133 / 1.69 GHz")
	return []*Table{t}, nil
}

// fig13Designs are the Figure 13 design points.
func fig13Designs() []arch.Design {
	return []arch.Design{
		{Arch: arch.AutomataProcessor, Bits: 8, Stride: 1},
		{Arch: arch.AutomataProcessor, Bits: 8, Stride: 1, Projected14nm: true},
		{Arch: arch.CacheAutomaton, Bits: 8, Stride: 1},
		{Arch: arch.CacheAutomaton, Bits: 8, Stride: 2},
		{Arch: arch.Impala, Bits: 4, Stride: 1},
		{Arch: arch.Impala, Bits: 4, Stride: 2},
		{Arch: arch.Impala, Bits: 4, Stride: 4},
	}
}

// Figure13Throughput reproduces the overall throughput chart.
func Figure13Throughput(o Options) ([]*Table, error) {
	t := &Table{
		Title:  "Figure 13: overall throughput",
		Header: []string{"design", "freq (GHz)", "bits/cycle", "throughput (Gbps)"},
	}
	for _, d := range fig13Designs() {
		name := d.String()
		if d.Arch == arch.AutomataProcessor && d.Projected14nm {
			name += " @14nm"
		}
		t.AddRow(name, f2(d.FreqGHz()), fmt.Sprint(d.BitsPerCycle()), f1(d.ThroughputGbps()))
	}
	imp := arch.Design{Arch: arch.Impala, Bits: 4, Stride: 4}
	ca := arch.Design{Arch: arch.CacheAutomaton, Bits: 8, Stride: 1}
	t.AddNote("Impala 16-bit / CA 8-bit = %.2fx (paper: 2.8x; 2x algorithmic, 1.4x architectural)",
		imp.ThroughputGbps()/ca.ThroughputGbps())
	t.AddNote("architectural factor alone (same 16 bits/cycle): %.2fx",
		imp.FreqGHz()/ca.FreqGHz())
	return []*Table{t}, nil
}

// Figure14Area reproduces the 32K-STE area comparison.
func Figure14Area(o Options) ([]*Table, error) {
	t := &Table{
		Title:  "Figure 14: area for 32K STEs (mm², 14nm)",
		Header: []string{"design", "state matching", "interconnect", "total"},
	}
	designs := []arch.Design{
		{Arch: arch.Impala, Bits: 4, Stride: 4},
		{Arch: arch.CacheAutomaton, Bits: 8, Stride: 1},
		{Arch: arch.AutomataProcessor, Bits: 8, Stride: 1},
	}
	var breakdowns []arch.Breakdown
	for _, d := range designs {
		bd := arch.AreaBreakdown(d, 32*1024)
		breakdowns = append(breakdowns, bd)
		t.AddRow(d.String(), f2(bd.StateMatchMM2), f2(bd.InterconnectMM2), f2(bd.TotalMM2()))
	}
	t.AddNote("state-matching: CA/Impala = %.1fx (paper 5.2x), AP/Impala = %.1fx (paper 34.5x)",
		breakdowns[1].StateMatchMM2/breakdowns[0].StateMatchMM2,
		breakdowns[2].StateMatchMM2/breakdowns[0].StateMatchMM2)
	t.AddNote("total: CA/Impala = %.2fx (paper 1.34x), AP/Impala = %.1fx (paper 3.9x)",
		breakdowns[1].TotalMM2()/breakdowns[0].TotalMM2(),
		breakdowns[2].TotalMM2()/breakdowns[0].TotalMM2())
	return []*Table{t}, nil
}

// Table6FPGA reproduces the FPGA multi-stride comparison.
func Table6FPGA(o Options) ([]*Table, error) {
	t := &Table{
		Title:  "Table 6: comparison with multi-stride FPGA solutions (16-bit rate, Snort)",
		Header: []string{"solution", "bits/cycle", "clock (GHz)", "throughput (Gbps)"},
	}
	imp := arch.Design{Arch: arch.Impala, Bits: 4, Stride: 4}
	t.AddRow(arch.FPGAYang.Name, fmt.Sprint(arch.FPGAYang.BitsPerCycle), f2(arch.FPGAYang.ClockGHz), f2(arch.FPGAYang.ThroughputGbps))
	t.AddRow(arch.FPGAYamagaki.Name, fmt.Sprint(arch.FPGAYamagaki.BitsPerCycle), f2(arch.FPGAYamagaki.ClockGHz), f2(arch.FPGAYamagaki.ThroughputGbps))
	t.AddRow("Impala", fmt.Sprint(imp.BitsPerCycle()), f2(imp.FreqGHz()), f2(imp.ThroughputGbps()))
	t.AddNote("Impala/Yang: %.1fx clock, %.1fx throughput (paper: ~20x both)",
		imp.FreqGHz()/arch.FPGAYang.ClockGHz, imp.ThroughputGbps()/arch.FPGAYang.ThroughputGbps)
	t.AddNote("Impala 16-bit vs FPGA 64-bit rate: %.1fx throughput (paper: 7.7x)",
		imp.ThroughputGbps()/(arch.FPGAYamagaki.ThroughputGbps*64/16*0.65))
	return []*Table{t}, nil
}
