package exp

import (
	"fmt"
	"runtime"
	"time"

	"impala/internal/core"
	"impala/internal/workload"
)

// compileSpeedWorkers is the worker sweep measured per benchmark.
var compileSpeedWorkers = []int{1, 2, 4, 8}

// CompileCell is one row of the compile-throughput table: one benchmark
// compiled at the Impala 4-stride design point with a fixed worker count.
type CompileCell struct {
	Benchmark string `json:"benchmark"`
	// Workers is the compile worker-pool bound; 0 marks the uncached
	// serial baseline row.
	Workers int `json:"workers"`
	// States/Transitions describe the compiled automaton — identical in
	// every row of a benchmark (the determinism invariant).
	States      int `json:"states"`
	Transitions int `json:"transitions"`
	// WallMS is the end-to-end compile wall-clock time; CPUMS sums the
	// per-work-item time across workers (Σ stage CPUTime), so it tracks
	// total work where WallMS tracks latency.
	WallMS float64 `json:"wall_ms"`
	CPUMS  float64 `json:"cpu_ms"`
	// Cover-cache counters for this compile (all zero on the baseline row).
	CacheHits    uint64  `json:"cache_hits"`
	CacheMisses  uint64  `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	// SpeedupVsSerial is wall(workers=1, cached) / wall(this row);
	// SpeedupVsUncached is wall(baseline) / wall(this row). On a single
	// hardware thread only the cache moves wall time, so SpeedupVsUncached
	// is the honest figure there.
	SpeedupVsSerial   float64 `json:"speedup_vs_serial"`
	SpeedupVsUncached float64 `json:"speedup_vs_uncached"`
}

// CompileSpeedReport measures V-TeSS compile throughput at the Impala
// 4-stride design point across a worker sweep, each run with a fresh cover
// cache, plus a serial uncached baseline per benchmark. Every row of a
// benchmark must report the same States/Transitions — the compiled automaton
// is byte-identical regardless of worker count or cache state; only the
// timings move.
func CompileSpeedReport(o Options) (*Report[CompileCell], error) {
	o = o.withDefaults()
	names := o.Benchmarks
	if len(names) == 0 {
		names = []string{"Snort", "Bro217", "Dotstar06", "Ranges05"}
	}
	rep := &Report[CompileCell]{
		Design:     "Impala 4-bit stride-4 (16 bits/cycle)",
		Scale:      o.Scale,
		Seed:       o.Seed,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	// Benchmarks are the concurrency cells here; each benchmark's worker
	// sweep stays serial inside its cell so the wall-clock numbers being
	// measured are not fighting each other for cores (Parallel defaults
	// to 1, keeping the whole sweep serial and the timings faithful).
	cells := make([][]CompileCell, len(names))
	if err := o.forEachCell(len(names), func(i int) error {
		b, ok := workload.Get(names[i])
		if !ok {
			return fmt.Errorf("exp: unknown benchmark %q", names[i])
		}
		n, err := o.generate(b)
		if err != nil {
			return err
		}

		compile := func(workers int, uncached bool) (*core.Result, float64, error) {
			t0 := time.Now()
			res, err := core.Compile(n, core.Config{
				TargetBits:   4,
				StrideDims:   4,
				Workers:      workers,
				DisableCache: uncached,
				Metrics:      o.Metrics,
			})
			return res, float64(time.Since(t0)) / float64(time.Millisecond), err
		}
		cpuMS := func(res *core.Result) float64 {
			var cpu time.Duration
			for _, st := range res.Stages {
				cpu += st.CPUTime
			}
			return float64(cpu) / float64(time.Millisecond)
		}

		baseRes, baseWall, err := compile(1, true)
		if err != nil {
			return err
		}
		rows := []CompileCell{{
			Benchmark:         names[i],
			Workers:           0,
			States:            baseRes.NFA.NumStates(),
			Transitions:       baseRes.NFA.NumTransitions(),
			WallMS:            baseWall,
			CPUMS:             cpuMS(baseRes),
			SpeedupVsUncached: 1,
		}}

		var serialWall float64
		for _, w := range compileSpeedWorkers {
			res, wall, err := compile(w, false)
			if err != nil {
				return err
			}
			if res.NFA.NumStates() != baseRes.NFA.NumStates() ||
				res.NFA.NumTransitions() != baseRes.NFA.NumTransitions() {
				return fmt.Errorf("exp: compile of %s not deterministic at %d workers", names[i], w)
			}
			if w == 1 {
				serialWall = wall
			}
			rows = append(rows, CompileCell{
				Benchmark:         names[i],
				Workers:           w,
				States:            res.NFA.NumStates(),
				Transitions:       res.NFA.NumTransitions(),
				WallMS:            wall,
				CPUMS:             cpuMS(res),
				CacheHits:         res.CacheHits,
				CacheMisses:       res.CacheMisses,
				CacheHitRate:      res.CacheHitRate(),
				SpeedupVsSerial:   serialWall / wall,
				SpeedupVsUncached: baseWall / wall,
			})
		}
		cells[i] = rows
		return nil
	}); err != nil {
		return nil, err
	}
	for _, rows := range cells {
		rep.Cells = append(rep.Cells, rows...)
	}
	rep.Metrics = o.snapshot()
	return rep, nil
}

// compileTable renders the report in the harness's text-table format.
func compileTable(r *Report[CompileCell]) *Table {
	t := &Table{
		Title: "Compile throughput: worker sweep with memoized Espresso cover cache",
		Header: []string{"benchmark", "workers", "states", "wall (ms)", "cpu (ms)",
			"cache hit%", "vs serial", "vs uncached"},
	}
	for _, c := range r.Cells {
		workers := fmt.Sprint(c.Workers)
		if c.Workers == 0 {
			workers = "uncached"
		}
		t.AddRow(c.Benchmark, workers, fmt.Sprint(c.States),
			f1(c.WallMS), f1(c.CPUMS),
			f1(c.CacheHitRate*100), f2(c.SpeedupVsSerial), f2(c.SpeedupVsUncached))
	}
	t.AddNote("GOMAXPROCS=%d; states/transitions identical across all rows of a benchmark (determinism invariant)", r.GOMAXPROCS)
	t.AddNote("cpu (ms) = Σ per-work-item time across workers; wall shrinks with workers, cpu stays ≈ total work")
	return t
}

// compileRows projects one row per (benchmark, workers) cell carrying the
// compiled shape — byte-identical across worker counts and cache states by
// definition, so any drift is a compiler behavior change. The workers=1 row
// also carries the cover-cache counters: it compiles serially, so they are
// deterministic there, whereas concurrent workers race to the first miss on
// a key and their counts wobble from run to run.
func compileRows(r *Report[CompileCell]) []Row {
	rows := make([]Row, len(r.Cells))
	for i, c := range r.Cells {
		rows[i] = Row{
			Key:   fmt.Sprintf("%s workers=%d", c.Benchmark, c.Workers),
			Exact: []Col{{"states", c.States}, {"transitions", c.Transitions}},
		}
		if c.Workers == 1 {
			rows[i].Exact = append(rows[i].Exact, Col{"cache_hits", c.CacheHits}, Col{"cache_misses", c.CacheMisses})
		}
	}
	return rows
}
