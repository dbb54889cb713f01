package exp

import "impala/internal/core"

// SquashWidth reproduces the §4.2 claim that 4-bit is the squashing sweet
// spot: at a fixed 16-bit processing rate, compare 2-bit (8 sub-symbols per
// cycle, 4-row columns), 4-bit (4 per cycle, 16-row columns), and 8-bit
// (2 per cycle, 256-row columns) on state overhead and total matching
// memory cells per original state.
func SquashWidth(o Options) ([]*Table, error) {
	o = o.withDefaults()
	suite, err := o.suite("Bro217", "ExactMatch", "Dotstar06", "Ranges05", "Hamming", "CoreRings")
	if err != nil {
		return nil, err
	}

	type width struct {
		bits, dims int
	}
	widths := []width{{2, 8}, {4, 4}, {8, 2}}
	cellsPerState := func(w width) int { return w.dims * (1 << w.bits) }

	// Each state also consumes one row+column of the 256x256 8T crossbar:
	// ~512 switch cells — the interconnect cost that makes raw matching
	// cells alone misleading.
	const interconnectCellsPerState = 512

	t := &Table{
		Title: "Squash-width ablation at 16 bits/cycle: state overhead, matching cells, and total cells (incl. interconnect) per original state",
		Header: []string{"benchmark",
			"2b states", "2b cells", "2b total", "4b states", "4b cells", "4b total",
			"8b states", "8b cells", "8b total"},
	}
	sums := make([]float64, 9)
	count := 0
	for _, b := range suite {
		n, err := o.generate(b)
		if err != nil {
			return nil, err
		}
		row := []string{b.Name}
		for wi, w := range widths {
			res, err := core.Compile(n, core.Config{TargetBits: w.bits, StrideDims: w.dims})
			if err != nil {
				return nil, err
			}
			oh := res.StateOverhead(n)
			cells := oh * float64(cellsPerState(w))
			total := oh * float64(cellsPerState(w)+interconnectCellsPerState)
			row = append(row, f2(oh), f1(cells), f1(total))
			sums[wi*3] += oh
			sums[wi*3+1] += cells
			sums[wi*3+2] += total
		}
		t.AddRow(row...)
		count++
	}
	avg := []string{"AVERAGE"}
	for i, s := range sums {
		if i%3 == 0 {
			avg = append(avg, f2(s/float64(count)))
		} else {
			avg = append(avg, f1(s/float64(count)))
		}
	}
	t.AddRow(avg...)
	t.AddNote("cells = overhead x (dims x 2^bits) matching cells; total adds ~512 crossbar cells per state")
	t.AddNote("paper (§4.2, citing FlexAmata): 4-bit conversion is the sweet spot vs 2-bit/3-bit squashing")
	return []*Table{t}, nil
}
