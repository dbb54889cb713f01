package core

import (
	"fmt"
	"time"

	"impala/internal/automata"
	"impala/internal/backend"
	"impala/internal/dfa"
	"impala/internal/espresso"
	"impala/internal/obs"
	"impala/internal/shard"
)

// Config selects a design point of the V-TeSS compiler.
type Config struct {
	// TargetBits is the sub-symbol width the hardware matches per memory
	// column: 4 for Impala (16-row subarrays), 8 for the Cache-Automaton
	// design point (256-row subarrays), or 2 (4-row subarrays) for the
	// squash-width ablation.
	TargetBits int
	// StrideDims is the number of sub-symbols consumed per cycle. For
	// TargetBits=4 the supported values are 1 (squash only), 2, 4, 8
	// (= 4, 8, 16, 32 bits/cycle); for TargetBits=8 they are 1 and 2
	// (= 8, 16 bits/cycle).
	StrideDims int
	// DisableMinimize skips the prefix/suffix merge passes (ablation).
	DisableMinimize bool
	// DisableRefine skips Espresso capsule refinement (ablation; the result
	// may not be capsule-legal).
	DisableRefine bool
	// Workers bounds the worker pools of the Espresso-heavy stages (squash
	// decomposition, stride label minimization, capsule refinement). 0
	// selects GOMAXPROCS. The compiled automaton and all stage statistics
	// except timings are byte-identical for every worker count.
	Workers int
	// DisableCache runs every Espresso instance uncached (ablation; the
	// compilespeed experiment's baseline). Results are identical — the
	// cache is exactly transparent — only slower.
	DisableCache bool
	// Espresso tunes the logic minimizer. When Espresso.Cache is nil,
	// Compile installs a fresh cover cache shared by all stages of this
	// compile; supply a cache to share memoized covers across compiles
	// (results are identical either way).
	Espresso espresso.Options
	// Trace, when non-nil, records one span per pipeline stage (lane 0)
	// plus one span per worker batch inside the Espresso-heavy parallel
	// stages (lanes 1..workers) — the Chrome-trace document impalac -trace
	// writes. Tracing never changes results; a nil Trace costs nothing.
	Trace *obs.Trace
	// Metrics, when non-nil, binds the compile's live instruments into the
	// registry: the Espresso cover cache's hit/miss/size counters are
	// exposed as gauges read at snapshot time, so a long-running process
	// compiling many rule sets shows cache effectiveness continuously.
	Metrics *obs.Registry
	// Tier, when non-nil, runs the tier-selection stage after the pipeline:
	// connected components of the transformed automaton are determinized
	// under the given budgets into a sealed hybrid DFA/NFA plan
	// (Result.Tier). Worker count and trace default to this Config's when
	// unset on the tier options. With Shards > 1 the same options instead
	// tier-plan every shard independently (Result.Shards); Result.Tier
	// stays nil.
	Tier *dfa.TierOptions
	// Shards > 1 runs the shard-plan stage after the pipeline: connected
	// components of the transformed automaton are packed into that many
	// shards (Result.Shards) — and, when Tier is set, each shard is
	// tier-planned independently, so the DFA fast-path budgets apply per
	// shard.
	Shards int
	// Backend names the compile target (internal/backend registry). The
	// empty string selects the default Impala capsule target. The backend
	// owns geometry legality (Validate delegates to it) and whether the
	// Espresso capsule-refinement stage applies: targets whose match arrays
	// encode arbitrary rects (the CAM backend) skip refinement entirely.
	Backend string
	// Weights, when non-nil, scores the input automaton: one max-plus
	// weight per transition (parallel to each state's Out list), a start
	// weight per state, and a report threshold. Every pipeline transform —
	// identity, squash, striding, Espresso refinement — carries the table
	// along, so Result.Weights scores the transformed automaton exactly:
	// the accumulated weight of any input path is preserved. Weighted
	// compiles skip the minimize passes (merging states whose entry weights
	// differ would change scores). After the last transform the
	// threshold-prune stage removes the states no path can carry to the
	// threshold, so Result.NFA reports exactly the input's threshold-clearing
	// reports. Tier and Shards compose with it: a plan moves whole
	// components of the pruned automaton, which the table scores.
	Weights *automata.Weights
}

// Validate checks the configuration. Geometry legality is owned by the
// selected backend, so impalac, the facade and direct core callers all
// report the backend's error text verbatim.
func (c Config) Validate() error {
	bk, err := backend.Get(c.Backend)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return bk.ValidateGeometry(c.TargetBits, c.StrideDims)
}

// BitsPerCycle returns the input bits consumed per cycle at this design
// point.
func (c Config) BitsPerCycle() int { return c.TargetBits * c.StrideDims }

// StageStats records one pipeline stage's outcome.
type StageStats struct {
	Name        string
	States      int
	Transitions int
	// Duration is the stage's wall-clock time.
	Duration time.Duration
	// CPUTime aggregates the stage's per-work-item time summed across
	// workers (per-state decompositions/refinements, per-node label
	// minimizations). For serial stages it equals Duration; for parallel
	// stages Duration shrinks with the worker count while CPUTime keeps
	// reporting the total work done, so timings stay meaningful under
	// parallelism.
	CPUTime time.Duration
}

// Result is the output of the V-TeSS compiler.
type Result struct {
	// NFA is the transformed, homogeneous, (unless refinement was disabled)
	// capsule-legal automaton.
	NFA *automata.NFA
	// Config echoes the design point.
	Config Config
	// Stages traces every pipeline stage (Figure 4).
	Stages []StageStats
	// SplitStates is the number of states added by Espresso refinement.
	SplitStates int
	// CompileTime is the total wall-clock transformation time.
	CompileTime time.Duration
	// CacheHits and CacheMisses count Espresso cover-cache lookups made by
	// this compile (deltas when a shared cache was supplied via
	// Config.Espresso.Cache).
	CacheHits, CacheMisses uint64
	// Tier is the sealed hybrid execution plan of the tier-selection stage
	// (nil unless Config.Tier was set with Config.Shards <= 1). Compiling
	// builds no engine over it: dfa.Unseal does.
	Tier *dfa.Sealed
	// Shards is the sealed partition of the shard-plan stage (nil unless
	// Config.Shards > 1); shard.Unseal builds its engine.
	Shards *shard.Sealed
	// Weights scores the transformed automaton (nil unless Config.Weights
	// was set): Weights.Edge parallels NFA's out-edge lists, and any input
	// path's accumulated weight is preserved through every transform. Its
	// threshold-dead states are gone from NFA.
	Weights *automata.Weights
}

// CacheHitRate returns the fraction of Espresso lookups served from the
// cover cache during this compile (0 when no lookups happened).
func (r *Result) CacheHitRate() float64 {
	if r.CacheHits+r.CacheMisses == 0 {
		return 0
	}
	return float64(r.CacheHits) / float64(r.CacheHits+r.CacheMisses)
}

// StateOverhead returns #states of the result normalized to the original
// automaton (the Table 4 metric).
func (r *Result) StateOverhead(original *automata.NFA) float64 {
	if original.NumStates() == 0 {
		return 0
	}
	return float64(r.NFA.NumStates()) / float64(original.NumStates())
}

// TransitionOverhead returns #transitions normalized to the original.
func (r *Result) TransitionOverhead(original *automata.NFA) float64 {
	if original.NumTransitions() == 0 {
		return 0
	}
	return float64(r.NFA.NumTransitions()) / float64(original.NumTransitions())
}

// Compile runs the full V-TeSS pipeline (Figure 4) on an 8-bit stride-1
// homogeneous automaton: squash/stride to the configured design point,
// minimize, Espresso-refine to capsule-legal form, minimize again — and, for
// a scored compile, remove the threshold-dead states
// (automata.PruneThreshold). The input automaton is not modified.
//
// The Espresso-heavy stages run their per-state/per-node work on a worker
// pool bounded by Config.Workers, sharing one cover cache across the stride
// and refine stages; the output is byte-identical for every worker count and
// cache state.
func Compile(n *automata.NFA, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	bk, err := backend.Get(cfg.Backend)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := n.Validate(); err != nil {
		return nil, fmt.Errorf("core: Compile input invalid: %w", err)
	}
	if cfg.Weights != nil {
		if err := cfg.Weights.Validate(n); err != nil {
			return nil, fmt.Errorf("core: Compile weights invalid: %w", err)
		}
	}
	start := time.Now()
	res := &Result{Config: cfg}

	// One cover cache serves every stage of this compile; a caller-supplied
	// cache additionally carries covers across compiles.
	esp := cfg.Espresso
	if cfg.DisableCache {
		esp.Cache = nil
	} else if esp.Cache == nil {
		esp.Cache = espresso.NewCoverCache()
	}
	hits0, misses0 := esp.Cache.Stats()
	if cfg.Metrics != nil && esp.Cache != nil {
		cache := esp.Cache
		cfg.Metrics.GaugeFunc("espresso_cache_hits", func() int64 {
			h, _ := cache.Stats()
			return int64(h)
		})
		cfg.Metrics.GaugeFunc("espresso_cache_misses", func() int64 {
			_, m := cache.Stats()
			return int64(m)
		})
		cfg.Metrics.GaugeFunc("espresso_cache_entries", func() int64 {
			return int64(cache.Len())
		})
	}

	// record traces a stage; cpu < 0 marks a serial stage (CPUTime = wall).
	record := func(name string, a *automata.NFA, t0 time.Time, cpu time.Duration) {
		wall := time.Since(t0)
		if cpu < 0 {
			cpu = wall
		}
		res.Stages = append(res.Stages, StageStats{
			Name:        name,
			States:      a.NumStates(),
			Transitions: a.NumTransitions(),
			Duration:    wall,
			CPUTime:     cpu,
		})
		cfg.Trace.Event(name, 0, t0, wall, map[string]any{
			"states":      a.NumStates(),
			"transitions": a.NumTransitions(),
			"cpu_us":      cpu.Microseconds(),
		})
	}

	var cur *automata.NFA
	var cpu time.Duration
	t0 := time.Now()
	switch {
	case cfg.TargetBits == 8 && cfg.StrideDims == 1:
		// The identity design point (classic CA): clone so later stages may
		// rewrite freely.
		cur = n.Clone()
		res.Weights = cfg.Weights.Clone()
		record("identity", cur, t0, -1)
	case cfg.TargetBits == 4 && cfg.StrideDims == 1:
		cur, res.Weights, cpu, err = squashWork(n, cfg.Weights, esp.Cache, cfg.Workers, cfg.Trace)
		if err != nil {
			return nil, err
		}
		record("squash", cur, t0, cpu)
	default:
		cur, res.Weights, cpu, err = strideWork(n, cfg.Weights, cfg.TargetBits, cfg.StrideDims, esp, cfg.Workers, cfg.Trace)
		if err != nil {
			return nil, err
		}
		record("v-tess", cur, t0, cpu)
	}

	// Minimize merges states regardless of their entry weights, so weighted
	// compiles skip it — scores must survive verbatim.
	if !cfg.DisableMinimize && cfg.Weights == nil {
		t0 = time.Now()
		automata.Minimize(cur)
		record("minimize", cur, t0, -1)
	}

	if !cfg.DisableRefine && bk.NeedsRefine() {
		t0 = time.Now()
		res.SplitStates, cpu, err = refineWork(cur, res.Weights, esp, cfg.Workers, cfg.Trace)
		if err != nil {
			return nil, err
		}
		record("espresso-refine", cur, t0, cpu)

		if !cfg.DisableMinimize && cfg.Weights == nil {
			t0 = time.Now()
			automata.Minimize(cur)
			record("minimize-2", cur, t0, -1)
		}
	}

	// The threshold is a compile-time input: the states no report that clears
	// it can pass through leave before anything is planned, placed or sealed.
	if res.Weights != nil {
		t0 = time.Now()
		cur, res.Weights, _ = automata.PruneThreshold(cur, res.Weights)
		record("threshold-prune", cur, t0, -1)
	}

	switch {
	case cfg.Shards > 1:
		var topt *dfa.TierOptions
		if cfg.Tier != nil {
			t := *cfg.Tier
			if t.Trace == nil {
				t.Trace = cfg.Trace
			}
			topt = &t
		}
		t0 = time.Now()
		res.Shards, cpu, err = shard.Partition(cur, shard.Options{
			Shards:  cfg.Shards,
			Tier:    topt,
			Workers: cfg.Workers,
			Trace:   cfg.Trace,
		})
		if err != nil {
			return nil, err
		}
		record("shard-plan", cur, t0, cpu)
	case cfg.Tier != nil:
		topt := *cfg.Tier
		if topt.Workers == 0 {
			topt.Workers = cfg.Workers
		}
		if topt.Trace == nil {
			topt.Trace = cfg.Trace
		}
		t0 = time.Now()
		sel, err := dfa.Select(cur, topt)
		if err != nil {
			return nil, err
		}
		res.Tier = sel.Seal()
		record("tier-select", cur, t0, sel.PlanCPU())
	}

	hits1, misses1 := esp.Cache.Stats()
	res.CacheHits, res.CacheMisses = hits1-hits0, misses1-misses0
	res.NFA = cur
	res.CompileTime = time.Since(start)
	return res, nil
}
