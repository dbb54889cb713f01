package exp

import (
	"fmt"
	"runtime"
	"time"

	"impala/internal/core"
	"impala/internal/dfa"
	"impala/internal/sim"
	"impala/internal/workload"
)

// TierCell is one row of the tier-execution table: one benchmark compiled
// at the Impala 4-stride design point, tier-planned, and scanned by the
// scalar reference engine, the bit-parallel compiled NFA engine, and the
// hybrid tiered engine.
type TierCell struct {
	Benchmark string `json:"benchmark"`
	Family    string `json:"family"`
	// Tier-selection shape — deterministic for a fixed scale/seed, so the
	// regression gate compares it exactly.
	States        int `json:"states"`
	CCs           int `json:"ccs"`
	DFACCs        int `json:"dfa_ccs"`
	DFAStates     int `json:"dfa_states"`
	DFANFAStates  int `json:"dfa_nfa_states"`
	NFATierStates int `json:"nfa_tier_states"`
	TableBytes    int `json:"table_bytes"`
	// Throughputs, one measured pass each.
	ScalarMBs         float64 `json:"scalar_mbs"`
	CompiledMBs       float64 `json:"compiled_mbs"`
	TieredMBs         float64 `json:"tiered_mbs"`
	CompiledWallMS    float64 `json:"compiled_wall_ms"`
	SpeedupVsCompiled float64 `json:"speedup_vs_compiled"`
}

// tierSpeedBenches spans the four workload families: keyword/regex rule
// sets (low ambiguity, the DFA tier's home turf), a mesh automaton (dense
// fan-out), a widget workload, and the synthetic ring suite whose
// rotational components resist both determinization and hypothesis
// merging — the NFA-tier fallback case.
var tierSpeedBenches = []string{"ExactMatch", "Snort", "Hamming", "RandomForest", "CoreRings"}

// TierSpeedReport measures the hybrid DFA/NFA tier against the engines it
// competes with, at the Impala 4-stride design point. Every cell also
// cross-checks correctness: the tiered engine must reproduce the compiled
// engine's reports byte-for-byte, and the compiled engine the scalar
// reference's.
func TierSpeedReport(o Options) (*Report[TierCell], error) {
	o = o.withDefaults()
	names := o.Benchmarks
	if len(names) == 0 {
		names = tierSpeedBenches
	}
	rep := &Report[TierCell]{
		Design:     "Impala 4-bit stride-4 (16 bits/cycle)",
		Scale:      o.Scale,
		Seed:       o.Seed,
		InputKB:    o.InputKB,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	cells := make([]TierCell, len(names))
	if err := o.forEachCell(len(names), func(i int) error {
		b, ok := workload.Get(names[i])
		if !ok {
			return fmt.Errorf("exp: unknown benchmark %q", names[i])
		}
		n8, err := o.generate(b)
		if err != nil {
			return err
		}
		res, err := core.Compile(n8, core.Config{TargetBits: 4, StrideDims: 4})
		if err != nil {
			return err
		}
		n := res.NFA
		tiered, err := dfa.BuildTiered(n, dfa.TierOptions{MinStateShare: -1})
		if err != nil {
			return err
		}
		input := workload.Input(n8, o.InputKB*1024, o.Seed+3)

		e, err := sim.NewEngine(n)
		if err != nil {
			return err
		}
		t0 := time.Now()
		scalarReports, _ := e.Run(input, nil)
		scalarMBs := float64(len(input)) / time.Since(t0).Seconds() / 1e6

		c, err := sim.Compile(n)
		if err != nil {
			return err
		}
		ce := c.NewEngine()
		t0 = time.Now()
		compiledReports, _ := ce.Run(input, nil)
		compiledWall := time.Since(t0)
		compiledMBs := float64(len(input)) / compiledWall.Seconds() / 1e6
		if !sim.SameReports(scalarReports, compiledReports) {
			return fmt.Errorf("exp: %s: compiled engine diverges from scalar reference", names[i])
		}

		t0 = time.Now()
		tieredReports, _ := tiered.Run(input)
		tieredMBs := float64(len(input)) / time.Since(t0).Seconds() / 1e6
		if !sim.SameReports(compiledReports, tieredReports) {
			return fmt.Errorf("exp: %s: tiered engine diverges from compiled (%d vs %d reports)",
				names[i], len(tieredReports), len(compiledReports))
		}

		p := tiered.Plan()
		cells[i] = TierCell{
			Benchmark:         names[i],
			Family:            string(b.Family),
			States:            n.NumStates(),
			CCs:               len(p.CCs),
			DFACCs:            p.DFACCs(),
			DFAStates:         p.DFAStates,
			DFANFAStates:      p.DFANFAStates,
			NFATierStates:     p.NFAStates,
			TableBytes:        p.DFATableBytes,
			ScalarMBs:         scalarMBs,
			CompiledMBs:       compiledMBs,
			TieredMBs:         tieredMBs,
			CompiledWallMS:    float64(compiledWall) / float64(time.Millisecond),
			SpeedupVsCompiled: tieredMBs / compiledMBs,
		}
		return nil
	}); err != nil {
		return nil, err
	}
	rep.Cells = cells
	rep.Metrics = o.snapshot()
	return rep, nil
}

// tierTable renders the report in the harness's text-table format.
func tierTable(r *Report[TierCell]) *Table {
	t := &Table{
		Title: "Tiered execution: DFA fast path vs compiled NFA vs scalar reference",
		Header: []string{"benchmark", "family", "states", "DFA CCs", "DFA states",
			"scalar MB/s", "compiled MB/s", "tiered MB/s", "vs compiled"},
	}
	for _, c := range r.Cells {
		t.AddRow(c.Benchmark, c.Family, fmt.Sprint(c.States),
			fmt.Sprintf("%d/%d", c.DFACCs, c.CCs), fmt.Sprint(c.DFAStates),
			f1(c.ScalarMBs), f1(c.CompiledMBs), f1(c.TieredMBs),
			fmt.Sprintf("%.2fx", c.SpeedupVsCompiled))
	}
	t.AddNote("DFA CCs = connected components on the dense-table fast path (one table walk per sub-symbol); the rest run the bit-parallel NFA engine")
	t.AddNote("every row cross-checked: tiered reports byte-identical to the compiled engine's, compiled to scalar's")
	return t
}

// tierRows projects one row per benchmark: the tier plan's shape (the
// planner is deterministic).
func tierRows(r *Report[TierCell]) []Row {
	rows := make([]Row, len(r.Cells))
	for i, c := range r.Cells {
		rows[i] = Row{
			Key: c.Benchmark,
			Exact: []Col{{"states", c.States}, {"ccs", c.CCs}, {"dfa_ccs", c.DFACCs},
				{"dfa_states", c.DFAStates}, {"dfa_nfa_states", c.DFANFAStates},
				{"nfa_tier_states", c.NFATierStates}, {"table_bytes", c.TableBytes}},
		}
	}
	return rows
}
