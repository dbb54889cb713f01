package exp

import (
	"fmt"
	"runtime"
	"time"

	"impala/internal/backend"
	"impala/internal/core"
	"impala/internal/place"
	"impala/internal/sim"
	"impala/internal/workload"
)

// BackendCell is one (benchmark, backend) row of the cross-backend
// comparison: the compiled shape, the backend's placement grouping, and its
// analytical capacity/throughput/area/energy model. Everything except
// MeasuredMBs and CompileWallMS is a pure function of the workload and the
// backend's parameter tables, so the regression gate compares it exactly.
type BackendCell struct {
	Benchmark string `json:"benchmark"`
	Backend   string `json:"backend"`
	Design    string `json:"design"`
	// Compiled shape and placement grouping (deterministic).
	States int `json:"states"`
	Rows   int `json:"rows"`
	Groups int `json:"groups"`
	Units  int `json:"units"`
	// Analytical model (deterministic given the shape).
	FreqGHz          float64 `json:"freq_ghz"`
	ThroughputGbps   float64 `json:"throughput_gbps"`
	TotalMM2         float64 `json:"total_mm2"`
	ThroughputPerMM2 float64 `json:"throughput_per_mm2"`
	PJPerByte        float64 `json:"pj_per_byte"`
	// Measured single-thread functional throughput of the compiled
	// automaton (noise; never gated) and the compile wall time.
	MeasuredMBs   float64 `json:"measured_mbs"`
	CompileWallMS float64 `json:"compile_wall_ms"`
}

// backendCmpBenches spans the workload families without the ring suite
// (whose rotational components exist to stress the tier planner, not the
// match-array model).
var backendCmpBenches = []string{"ExactMatch", "Snort", "Hamming", "RandomForest"}

// backendCmpPoints compares both targets at 16 bits/cycle — the Impala
// 4-bit×4 design against the CAM 8-bit×2 rows — so the capacity, area and
// energy columns differ by architecture, not by line rate.
var backendCmpPoints = []struct {
	backend      string
	bits, stride int
}{
	{backend.DefaultName, 4, 4},
	{backend.CamName, 8, 2},
}

// BackendCmpReport compiles every benchmark for both registered targets and
// tabulates the backends' capacity/energy/throughput models side by side.
// Each benchmark additionally cross-checks functional equivalence: the two
// backends' compiled automata must produce identical reports on the same
// input — the backend changes the hardware model, never the match
// semantics.
func BackendCmpReport(o Options) (*Report[BackendCell], error) {
	o = o.withDefaults()
	names := o.Benchmarks
	if len(names) == 0 {
		names = backendCmpBenches
	}
	rep := &Report[BackendCell]{
		Scale:      o.Scale,
		Seed:       o.Seed,
		InputKB:    o.InputKB,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	cells := make([][]BackendCell, len(names))
	if err := o.forEachCell(len(names), func(i int) error {
		b, ok := workload.Get(names[i])
		if !ok {
			return fmt.Errorf("exp: unknown benchmark %q", names[i])
		}
		n8, err := o.generate(b)
		if err != nil {
			return err
		}
		input := workload.Input(n8, o.InputKB*1024, o.Seed+3)

		var refReports []sim.Report
		for pi, pt := range backendCmpPoints {
			bk, err := backend.Get(pt.backend)
			if err != nil {
				return err
			}
			t0 := time.Now()
			res, err := core.Compile(n8, core.Config{
				TargetBits: pt.bits, StrideDims: pt.stride, Backend: pt.backend,
			})
			if err != nil {
				return err
			}
			compileWall := time.Since(t0)
			pl, err := bk.Place(res.NFA, place.Options{Seed: o.Seed})
			if err != nil {
				return err
			}

			c, err := sim.Compile(res.NFA)
			if err != nil {
				return err
			}
			t0 = time.Now()
			reports, _ := c.Run(input)
			mbs := float64(len(input)) / time.Since(t0).Seconds() / 1e6
			if pi == 0 {
				refReports = reports
			} else if !sim.SameReports(refReports, reports) {
				return fmt.Errorf("exp: %s: backend %s diverges from %s (%d vs %d reports)",
					names[i], pt.backend, backendCmpPoints[0].backend, len(reports), len(refReports))
			}

			md := bk.Model(res.NFA)
			cells[i] = append(cells[i], BackendCell{
				Benchmark:        names[i],
				Backend:          bk.Name(),
				Design:           md.Design,
				States:           res.NFA.NumStates(),
				Rows:             md.Rows,
				Groups:           len(pl.G4s),
				Units:            md.Units,
				FreqGHz:          md.FreqGHz,
				ThroughputGbps:   md.ThroughputGbps,
				TotalMM2:         md.TotalMM2,
				ThroughputPerMM2: md.ThroughputPerMM2,
				PJPerByte:        md.PJPerByte,
				MeasuredMBs:      mbs,
				CompileWallMS:    float64(compileWall) / float64(time.Millisecond),
			})
		}
		return nil
	}); err != nil {
		return nil, err
	}
	for _, cs := range cells {
		rep.Cells = append(rep.Cells, cs...)
	}
	return rep, nil
}

// backendTable renders the report in the harness's text-table format.
func backendTable(r *Report[BackendCell]) *Table {
	t := &Table{
		Title: "Compile backends: Impala capsule subarrays vs CAM ternary rows at 16 bits/cycle",
		Header: []string{"benchmark", "backend", "states", "rows", "groups", "units",
			"GHz", "Gbps", "mm2", "Gbps/mm2", "pJ/B", "MB/s"},
	}
	for _, c := range r.Cells {
		t.AddRow(c.Benchmark, c.Backend, fmt.Sprint(c.States), fmt.Sprint(c.Rows),
			fmt.Sprint(c.Groups), fmt.Sprint(c.Units),
			f2(c.FreqGHz), f1(c.ThroughputGbps), fmt.Sprintf("%.3f", c.TotalMM2),
			f2(c.ThroughputPerMM2), f2(c.PJPerByte), f1(c.MeasuredMBs))
	}
	t.AddNote("rows = match-array occupancy in the backend's capacity unit: capsule columns (one per state) for impala, TCAM rows (one per match rect) for cam")
	t.AddNote("the cam backend skips Espresso capsule refinement (ternary rows encode arbitrary rects); groups = G4 units for impala, 256-row banks for cam")
	t.AddNote("every benchmark cross-checked: both backends' compiled automata produce identical reports on the same input")
	return t
}

// backendRows projects one row per (benchmark, backend): the compiled
// shape, the placement grouping and the analytical model are all pure
// functions of the workload, so every column is exact and any drift is a
// backend model change.
func backendRows(r *Report[BackendCell]) []Row {
	rows := make([]Row, len(r.Cells))
	for i, c := range r.Cells {
		rows[i] = Row{
			Key: c.Benchmark + "/" + c.Backend,
			Exact: []Col{{"states", c.States}, {"rows", c.Rows}, {"groups", c.Groups}, {"units", c.Units},
				{"freq_ghz", c.FreqGHz}, {"throughput_gbps", c.ThroughputGbps}, {"total_mm2", c.TotalMM2},
				{"throughput_per_mm2", c.ThroughputPerMM2}, {"pj_per_byte", c.PJPerByte}},
		}
	}
	return rows
}
