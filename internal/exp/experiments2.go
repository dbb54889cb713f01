package exp

import (
	"fmt"
	"math"

	"impala/internal/arch"
	"impala/internal/automata"
	"impala/internal/core"
	"impala/internal/interconnect"
	"impala/internal/place"
	"impala/internal/workload"
)

// Figure11ThroughputPerArea reproduces the headline chart: throughput per
// unit area across the suite for the AP, CA (8- and 16-bit), and Impala
// (4/8/16-bit), accounting for each design's transformation overhead and
// hardware-unit replication.
func Figure11ThroughputPerArea(o Options) ([]*Table, error) {
	o = o.withDefaults()
	t := &Table{
		Title: "Figure 11: throughput per unit area (Gbps/mm²)",
		Header: []string{"benchmark", "AP", "AP@14nm", "CA 8-bit", "CA 16-bit",
			"Impala 4-bit", "Impala 8-bit", "Impala 16-bit", "Imp16/CA8"},
	}
	type design struct {
		d   arch.Design
		cfg *core.Config // nil = use original automaton
	}
	designs := []design{
		{d: arch.Design{Arch: arch.AutomataProcessor, Bits: 8, Stride: 1}},
		{d: arch.Design{Arch: arch.AutomataProcessor, Bits: 8, Stride: 1, Projected14nm: true}},
		{d: arch.Design{Arch: arch.CacheAutomaton, Bits: 8, Stride: 1}},
		{d: arch.Design{Arch: arch.CacheAutomaton, Bits: 8, Stride: 2}, cfg: &core.Config{TargetBits: 8, StrideDims: 2}},
		{d: arch.Design{Arch: arch.Impala, Bits: 4, Stride: 1}, cfg: &core.Config{TargetBits: 4, StrideDims: 1}},
		{d: arch.Design{Arch: arch.Impala, Bits: 4, Stride: 2}, cfg: &core.Config{TargetBits: 4, StrideDims: 2}},
		{d: arch.Design{Arch: arch.Impala, Bits: 4, Stride: 4}, cfg: &core.Config{TargetBits: 4, StrideDims: 4}},
	}
	var logSum float64
	var count int
	var best float64
	suite, err := o.suite()
	if err != nil {
		return nil, err
	}
	for _, b := range suite {
		n, err := o.generate(b)
		if err != nil {
			return nil, err
		}
		row := []string{b.Name}
		var vals []float64
		for _, ds := range designs {
			states := n.NumStates()
			if ds.cfg != nil {
				res, err := core.Compile(n, *ds.cfg)
				if err != nil {
					return nil, err
				}
				states = res.NFA.NumStates()
			}
			// Scale the state demand back to paper size so replication
			// counts are realistic.
			fullStates := int(float64(states) / o.Scale)
			v := arch.ThroughputPerArea(ds.d, fullStates)
			vals = append(vals, v)
			row = append(row, f2(v))
		}
		ratio := vals[6] / vals[2] // Impala 16-bit vs CA 8-bit
		row = append(row, f2(ratio))
		t.AddRow(row...)
		logSum += math.Log(ratio)
		count++
		if ratio > best {
			best = ratio
		}
	}
	t.AddNote("geomean Impala16/CA8 = %.2fx, max %.2fx (paper: avg 2.7x, up to 3.7x)",
		math.Exp(logSum/float64(count)), best)
	return []*Table{t}, nil
}

// Figure12EnergyPower reproduces the energy-per-symbol and power comparison
// between Impala 16-bit and CA 8-bit, driven by real per-cycle activity of
// the capsule-level machine.
func Figure12EnergyPower(o Options) ([]*Table, error) {
	o = o.withDefaults()
	t := &Table{
		Title: "Figure 12: energy per symbol and average power (Impala 16-bit vs CA 8-bit)",
		Header: []string{"benchmark", "Impala pJ/sym", "CA pJ/sym", "energy ratio",
			"Impala mW", "CA mW", "power ratio"},
	}
	inputBytes := o.InputKB * 1024
	var eSum, pSum float64
	var count int
	suite, err := o.suite()
	if err != nil {
		return nil, err
	}
	for _, b := range suite {
		n, err := o.generate(b)
		if err != nil {
			return nil, err
		}
		input := workload.Input(n, inputBytes, o.Seed+99)

		run := func(cfg core.Config, d arch.Design) (arch.EnergyReport, error) {
			res, err := core.Compile(n, cfg)
			if err != nil {
				return arch.EnergyReport{}, err
			}
			pl, err := place.Place(res.NFA, place.Options{Seed: o.Seed})
			if err != nil {
				return arch.EnergyReport{}, err
			}
			m, err := arch.Build(res.NFA, pl)
			if err != nil {
				return arch.EnergyReport{}, err
			}
			_, stats := m.Run(input)
			blocks, g4s := arch.OccupancyFor(res.NFA.NumStates())
			em := arch.EnergyModel{Design: d, OccupiedBlocks: blocks, OccupiedG4s: g4s}
			return em.Evaluate(stats, len(input)), nil
		}
		imp, err := run(core.Config{TargetBits: 4, StrideDims: 4}, arch.Design{Arch: arch.Impala, Bits: 4, Stride: 4})
		if err != nil {
			return nil, err
		}
		ca, err := run(core.Config{TargetBits: 8, StrideDims: 1}, arch.Design{Arch: arch.CacheAutomaton, Bits: 8, Stride: 1})
		if err != nil {
			return nil, err
		}
		eRatio := ca.PJPerSymbol / imp.PJPerSymbol
		pRatio := ca.AvgPowerMW / imp.AvgPowerMW
		t.AddRow(b.Name, f2(imp.PJPerSymbol), f2(ca.PJPerSymbol), f2(eRatio),
			f1(imp.AvgPowerMW), f1(ca.AvgPowerMW), f2(pRatio))
		eSum += math.Log(eRatio)
		pSum += math.Log(pRatio)
		count++
	}
	t.AddNote("geomean energy ratio CA/Impala = %.2fx (paper: 1.7x); geomean power ratio = %.2fx (paper: 1.22x)",
		math.Exp(eSum/float64(count)), math.Exp(pSum/float64(count)))
	return []*Table{t}, nil
}

// Figure8Utilization reproduces the crossbar-utilization observation: CA's
// greedy per-local-switch packing leaves switch rows stranded when CC sizes
// don't divide 256 (the paper's two-100-state-CC example), which G4 packing
// with splitting avoids.
func Figure8Utilization(o Options) ([]*Table, error) {
	o = o.withDefaults()
	t := &Table{
		Title:  "Figure 8: local-switch row utilization under CA-style greedy packing",
		Header: []string{"benchmark", "largest CC", "switches", "rows used (avg)", "stranded rows (avg)", "util"},
	}
	suite, err := o.suite()
	if err != nil {
		return nil, err
	}
	for _, b := range suite {
		n, err := o.generate(b)
		if err != nil {
			return nil, err
		}
		ccs := n.ConnectedComponents()
		// CA greedy: first-fit CCs into 256-row switches, no splitting.
		var switches []int // rows used per switch
		largest := 0
		for _, cc := range ccs {
			if len(cc) > largest {
				largest = len(cc)
			}
			if len(cc) > interconnect.LocalSwitchSize {
				// CA cannot place it at all; count it as one full switch for
				// reporting purposes.
				switches = append(switches, interconnect.LocalSwitchSize)
				continue
			}
			placed := false
			for i := range switches {
				if switches[i]+len(cc) <= interconnect.LocalSwitchSize {
					switches[i] += len(cc)
					placed = true
					break
				}
			}
			if !placed {
				switches = append(switches, len(cc))
			}
		}
		used := 0
		for _, u := range switches {
			used += u
		}
		avgUsed := float64(used) / float64(len(switches))
		t.AddRow(b.Name, fmt.Sprint(largest), fmt.Sprint(len(switches)),
			f1(avgUsed), f1(interconnect.LocalSwitchSize-avgUsed),
			f2(avgUsed/interconnect.LocalSwitchSize))
	}
	t.AddNote("paper example: two 100-state CCs per switch leave rows 200-255 unutilized")
	return []*Table{t}, nil
}

// Figure9Heatmap quantifies the connectivity pattern of Dotstar06 under BFS
// labelling as striding increases: real-world automata are diagonal-shaped,
// and striding thickens the diagonal (more transitions, higher crossbar
// utilization).
func Figure9Heatmap(o Options) ([]*Table, error) {
	o = o.withDefaults()
	b, _ := workload.Get("Dotstar06")
	n, err := o.generate(b)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Figure 9: Dotstar06 connectivity under BFS labelling vs stride",
		Header: []string{"stride", "states", "transitions", "|Δlabel|<=16", "|Δlabel|<=64", "diag density"},
	}
	for _, s := range []int{1, 2, 4} {
		var a *automata.NFA
		if s == 1 {
			a = n
		} else {
			res, err := core.Compile(n, core.Config{TargetBits: 4, StrideDims: s})
			if err != nil {
				return nil, err
			}
			a = res.NFA
		}
		// Global BFS labels, per CC.
		label := make(map[automata.StateID]int, a.NumStates())
		next := 0
		for _, cc := range a.ConnectedComponents() {
			for _, id := range a.BFSOrder(cc) {
				label[id] = next
				next++
			}
		}
		within16, within64, total := 0, 0, 0
		for i := range a.States {
			for _, dst := range a.States[i].Out {
				d := label[automata.StateID(i)] - label[dst]
				if d < 0 {
					d = -d
				}
				total++
				if d <= 16 {
					within16++
				}
				if d <= 64 {
					within64++
				}
			}
		}
		t.AddRow(fmt.Sprint(s), fmt.Sprint(a.NumStates()), fmt.Sprint(total),
			f2(float64(within16)/float64(total)), f2(float64(within64)/float64(total)),
			f2(float64(total)/float64(a.NumStates())))
	}
	t.AddNote("higher stride => more transitions per state (denser diagonal), matching the paper's heatmaps")
	return []*Table{t}, nil
}

// Figure10G4 compares BFS labelling against the repair+GA placement on the
// G4 fabric: BFS leaves uncovered transitions (the red dots of Figure
// 10(b)); the search must reach zero.
func Figure10G4(o Options) ([]*Table, error) {
	o = o.withDefaults()
	t := &Table{
		Title:  "Figure 10: G4 placement — BFS labelling vs GA placement (uncovered transitions)",
		Header: []string{"benchmark", "stride-4 states", "G4s", "BFS uncovered", "GA uncovered", "GA runs"},
	}
	suite, err := o.suite("Dotstar06", "TCP", "EntityResolution", "Levenshtein")
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
		bfs, err := place.Place(res.NFA, place.Options{Seed: o.Seed, DisableGA: true, DisableRepair: true, NaiveSeed: true})
		if err != nil {
			return nil, err
		}
		full, err := place.Place(res.NFA, place.Options{Seed: o.Seed})
		if err != nil {
			return nil, err
		}
		t.AddRow(b.Name, fmt.Sprint(res.NFA.NumStates()), fmt.Sprint(len(full.G4s)),
			fmt.Sprint(bfs.TotalUncovered), fmt.Sprint(full.TotalUncovered),
			fmt.Sprint(full.GAInvocations))
	}
	t.AddNote("the GA column must be all zeros (valid placement); BFS alone generally is not")
	return []*Table{t}, nil
}

// CaseStudyEntityResolution reproduces the Section 5.2.1 case study:
// EntityResolution strided to 4-stride, packed into G4s.
func CaseStudyEntityResolution(o Options) ([]*Table, error) {
	o = o.withDefaults()
	b, _ := workload.Get("EntityResolution")
	n, err := o.generate(b)
	if err != nil {
		return nil, err
	}
	origCCs := n.ConnectedComponents()
	res, err := core.Compile(n, core.Config{TargetBits: 4, StrideDims: 4})
	if err != nil {
		return nil, err
	}
	ccs := res.NFA.ConnectedComponents()
	var avgCC float64
	for _, cc := range ccs {
		avgCC += float64(len(cc))
	}
	avgCC /= float64(len(ccs))

	pl, err := place.Place(res.NFA, place.Options{Seed: o.Seed})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Section 5.2.1 case study: EntityResolution, 4-stride, G4 packing",
		Header: []string{"metric", "measured", "paper (full size)"},
	}
	t.AddRow("connected components (original)", fmt.Sprint(len(origCCs)), "1000")
	t.AddRow("avg CC size (original)", f1(float64(n.NumStates())/float64(len(origCCs))), "95.12")
	t.AddRow("avg CC size (4-stride)", f1(avgCC), "108.9")
	t.AddRow("G4 switches used", fmt.Sprint(len(pl.G4s)), "117")
	t.AddRow("avg states per G4", f1(pl.AvgStatesPerG4()), "930.7")
	t.AddRow("uncovered transitions", fmt.Sprint(pl.TotalUncovered), "0")
	t.AddRow("GA invocations", fmt.Sprint(pl.GAInvocations), "-")
	if !pl.Valid() {
		t.AddNote("PLACEMENT FAILED — GA could not cover all transitions")
	}
	return []*Table{t}, nil
}
