package exp

import (
	"fmt"

	"impala/internal/arch"
	"impala/internal/core"
	"impala/internal/place"
)

// Ablation quantifies the design choices DESIGN.md calls out, on a
// benchmark subset: Espresso refinement cost, prefix/suffix-merge savings,
// the placement search ladder (BFS → repair → GA), and the stride sweep
// that makes 4-stride the throughput-per-area peak.
func Ablation(o Options) ([]*Table, error) {
	o = o.withDefaults()
	suite, err := o.suite("Bro217", "Dotstar06", "Hamming", "SPM")
	if err != nil {
		return nil, err
	}

	comp := &Table{
		Title: "Ablation: compiler stages (4-stride states)",
		Header: []string{"benchmark", "full", "no refine", "refine cost",
			"no minimize", "minimize saving"},
	}
	placeT := &Table{
		Title:  "Ablation: placement search ladder (uncovered transitions, 4-stride)",
		Header: []string{"benchmark", "naive BFS", "seed only", "seed+repair", "full (GA)"},
	}
	sweep := &Table{
		Title:  "Ablation: stride sweep (Gbps/mm², full-size projection)",
		Header: []string{"benchmark", "stride 1", "stride 2", "stride 4", "stride 8", "peak"},
	}

	for _, b := range suite {
		n, err := o.generate(b)
		if err != nil {
			return nil, err
		}

		full, err := core.Compile(n, core.Config{TargetBits: 4, StrideDims: 4})
		if err != nil {
			return nil, err
		}
		noRefine, err := core.Compile(n, core.Config{TargetBits: 4, StrideDims: 4, DisableRefine: true})
		if err != nil {
			return nil, err
		}
		noMin, err := core.Compile(n, core.Config{TargetBits: 4, StrideDims: 4, DisableMinimize: true})
		if err != nil {
			return nil, err
		}
		comp.AddRow(b.Name,
			fmt.Sprint(full.NFA.NumStates()),
			fmt.Sprint(noRefine.NFA.NumStates()),
			f2(float64(full.NFA.NumStates())/float64(noRefine.NFA.NumStates())),
			fmt.Sprint(noMin.NFA.NumStates()),
			f2(float64(noMin.NFA.NumStates())/float64(full.NFA.NumStates())))

		variants := []place.Options{
			{Seed: o.Seed, NaiveSeed: true, DisableGA: true, DisableRepair: true},
			{Seed: o.Seed, DisableGA: true, DisableRepair: true},
			{Seed: o.Seed, DisableGA: true},
			{Seed: o.Seed},
		}
		row := []string{b.Name}
		for _, po := range variants {
			pl, err := place.Place(full.NFA, po)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprint(pl.TotalUncovered))
		}
		placeT.AddRow(row...)

		srow := []string{b.Name}
		best, bestStride := 0.0, 0
		for _, s := range []int{1, 2, 4, 8} {
			res, err := core.Compile(n, core.Config{TargetBits: 4, StrideDims: s})
			if err != nil {
				return nil, err
			}
			fullStates := int(float64(res.NFA.NumStates()) / o.Scale)
			v := arch.ThroughputPerArea(arch.Design{Arch: arch.Impala, Bits: 4, Stride: s}, fullStates)
			srow = append(srow, f2(v))
			if v > best {
				best, bestStride = v, s
			}
		}
		srow = append(srow, fmt.Sprintf("stride %d", bestStride))
		sweep.AddRow(srow...)
	}
	comp.AddNote("refine cost = capsule-legality state splitting; minimize saving = prefix/suffix merge")
	placeT.AddNote("the full column must be all zeros; each ladder step should not increase misses")
	sweep.AddNote("paper: 4-stride yields the best overall throughput per unit area (Section 8.4)")
	return []*Table{comp, placeT, sweep}, nil
}
