package exp

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"
)

func gateByID(t *testing.T, id string) Gate {
	t.Helper()
	for _, g := range Gates() {
		if g.ID() == id {
			return g
		}
	}
	t.Fatalf("no gate %q", id)
	return nil
}

// readBack reads a report gate id wrote, with its cell type restored.
func readBack[C any](t *testing.T, r io.Reader, id string) *Report[C] {
	t.Helper()
	rep, err := gateByID(t, id).Read(r)
	if err != nil {
		t.Fatal(err)
	}
	return rep.(*Report[C])
}

// Synthetic baselines, one per gated experiment. Every wall-clock row clears
// MinWallMS unless a case says otherwise, and all but compilespeed's ran on
// 4 cores.

func compileBase() *Report[CompileCell] {
	return &Report[CompileCell]{
		Design: "Impala 4-bit stride-4 (16 bits/cycle)",
		Scale:  0.02, Seed: 1, GOMAXPROCS: 1,
		Cells: []CompileCell{
			{Benchmark: "Snort", Workers: 0, States: 100, Transitions: 200,
				WallMS: 80, SpeedupVsUncached: 1},
			{Benchmark: "Snort", Workers: 1, States: 100, Transitions: 200, WallMS: 45,
				CacheHits: 95, CacheMisses: 5, CacheHitRate: 0.95, SpeedupVsSerial: 1, SpeedupVsUncached: 1.8},
			{Benchmark: "Snort", Workers: 2, States: 100, Transitions: 200, WallMS: 47,
				CacheHits: 95, CacheMisses: 5, CacheHitRate: 0.95, SpeedupVsUncached: 1.7},
		},
	}
}

// withTinyBro adds a benchmark whose uncached compile (0.8 ms) is too quick
// to time; speedup is its workers=1 row's speedup_vs_uncached.
func withTinyBro(speedup float64) func(*Report[CompileCell]) {
	return func(r *Report[CompileCell]) {
		r.Cells = append(r.Cells,
			CompileCell{Benchmark: "Bro217", Workers: 0, States: 10, Transitions: 20,
				WallMS: 0.8, SpeedupVsUncached: 1},
			CompileCell{Benchmark: "Bro217", Workers: 1, States: 10, Transitions: 20,
				WallMS: 0.5, CacheHits: 7, CacheMisses: 3, CacheHitRate: 0.70, SpeedupVsUncached: speedup})
	}
}

func tierBase() *Report[TierCell] {
	return &Report[TierCell]{
		Design: "Impala 4-bit stride-4 (16 bits/cycle)",
		Scale:  0.02, Seed: 1, GOMAXPROCS: 4, InputKB: 256,
		Cells: []TierCell{
			{Benchmark: "Snort", States: 2449, CCs: 112, DFACCs: 82,
				DFAStates: 64117, DFANFAStates: 1800, NFATierStates: 649,
				TableBytes: 4 << 20, CompiledWallMS: 50, SpeedupVsCompiled: 1.3},
			// 8 ms compiled wall: under the 20 ms noise gate.
			{Benchmark: "ExactMatch", States: 269, CCs: 8, DFACCs: 8,
				DFAStates: 1099, DFANFAStates: 269, TableBytes: 70000,
				CompiledWallMS: 8, SpeedupVsCompiled: 2.7},
		},
	}
}

func backendBase() *Report[BackendCell] {
	return &Report[BackendCell]{
		Scale: 0.02, Seed: 1, InputKB: 64, GOMAXPROCS: 4,
		Cells: []BackendCell{
			{Benchmark: "Snort", Backend: "impala", Design: "Impala 4-bit stride-4",
				States: 2449, Rows: 2449, Groups: 40, Units: 1,
				FreqGHz: 5, ThroughputGbps: 80, TotalMM2: 0.5, ThroughputPerMM2: 160,
				PJPerByte: 2.0, MeasuredMBs: 900, CompileWallMS: 50},
			{Benchmark: "Snort", Backend: "cam", Design: "CAM 8-bit stride-2",
				States: 2500, Rows: 2600, Groups: 11, Units: 1,
				FreqGHz: 1.7, ThroughputGbps: 27.2, TotalMM2: 0.09, ThroughputPerMM2: 300,
				PJPerByte: 5.8, MeasuredMBs: 800, CompileWallMS: 30},
		},
	}
}

func serveBase() *Report[ServeCell] {
	rep := &Report[ServeCell]{
		Benchmark: "Bro217", Scale: 0.02, Seed: 1,
		States: 50, InputBytes: 65536, GOMAXPROCS: 4,
	}
	for i, clients := range []int{1, 8, 64} {
		rep.Cells = append(rep.Cells, ServeCell{
			Clients: clients, Requests: 32, Matches: 96,
			WallMS: 100, MBPerSec: 10 * float64(i+1), SpeedupVs1: float64(i + 1),
		})
	}
	return rep
}

// shardBase has two benchmarks, both doubling at K=8: it meets the headline.
func shardBase() *Report[ShardCell] {
	mk := func(name string) ShardCell {
		c := ShardCell{Benchmark: name, Family: "Regex", States: 100, CCs: 10, Budget: 400}
		for _, k := range []int{1, 2, 4, 8} {
			c.Ks = append(c.Ks, ShardKCell{
				Shards:         k,
				MaxShardStates: 100 / k,
				MinShardStates: 100 / k,
				TieredShards:   k,
				DFAStates:      50 * k,
				NFATierStates:  100 - 10*k,
				MBPerSec:       10 * float64(k),
				WallMS:         100 / float64(k),
				SpeedupVs1:     float64(k),
			})
		}
		return c
	}
	return &Report[ShardCell]{
		Scale: 0.02, Seed: 1, InputKB: 1024, GOMAXPROCS: 4,
		Cells: []ShardCell{mk("A"), mk("B")},
	}
}

// shardK8 sets every benchmark's K=8 speedup.
func shardK8(v float64) func(*Report[ShardCell]) {
	return func(r *Report[ShardCell]) {
		for i := range r.Cells {
			r.Cells[i].Ks[3].SpeedupVs1 = v
		}
	}
}

func clusterBase() *Report[ClusterCell] {
	mk := func(name string) ClusterCell {
		return ClusterCell{
			Benchmark: name, Family: "Regex", Topology: "uniform2",
			Shards: 2, Domains: 2, States: 100,
			ShardDomain: []int{0, 1}, DomainStates: []int{60, 40},
			CutCost: 3, Matches: 17, Bytes: 4096, MBPerSec: 12.5,
		}
	}
	return &Report[ClusterCell]{
		Scale: 0.02, Seed: 1, InputKB: 4, GOMAXPROCS: 4,
		Cells: []ClusterCell{mk("A"), mk("B")},
	}
}

func scoreBase() *Report[ScoreCell] {
	mk := func(name, mesh string, scalar int) ScoreCell {
		return ScoreCell{
			Universe: name, Mesh: mesh, Patterns: 8, States: 200, WeightedEdges: 600,
			ScalarStates: scalar, Threshold: 9, BinaryReports: 100, ScoredReports: 60,
			BinaryMBPerSec: 50, ScoredMBPerSec: 40, BinaryWallMS: 100, ScoredWallMS: 125,
			RelThroughput: 0.8,
		}
	}
	return &Report[ScoreCell]{
		Scale: 0.02, Seed: 1, InputKB: 1024, GOMAXPROCS: 4,
		Cells: []ScoreCell{mk("DNA-align", "levenshtein", 24), mk("Entity-fuzzy", "hamming", 0)},
	}
}

// fix builds a fresh fixture and applies the mutations to it.
func fix[C any](mk func() *Report[C], muts ...func(*Report[C])) AnyReport {
	r := mk()
	for _, m := range muts {
		m(r)
	}
	return r
}

// gateCase is one row of the comparator matrix: base vs cur under gate exp
// must produce n regressions, one of them containing want (want == "" means
// a clean pass), and a note containing note when that is set.
type gateCase struct {
	test, name string // the Test function that runs the row, and its subtest
	exp        string
	base, cur  AnyReport
	opt        CheckOptions
	want       string
	n          int // regressions expected; 0 means 1 when want != ""
	note       string
}

func gateCases() []gateCase {
	type (
		cc = Report[CompileCell]
		tc = Report[TierCell]
		bc = Report[BackendCell]
		sv = Report[ServeCell]
		sh = Report[ShardCell]
		cl = Report[ClusterCell]
		sc = Report[ScoreCell]
	)
	return []gateCase{
		// compilespeed
		{test: "TestCompareReportsIdenticalPasses", name: "identical", exp: "compilespeed",
			base: fix(compileBase), cur: fix(compileBase)},
		// A 17% speedup drop is under the 25% tolerance, and concurrent
		// workers' cache counters wobble by design: neither gates.
		{test: "TestCompareReportsWithinToleranceMixedNoise", name: "noise", exp: "compilespeed",
			base: fix(compileBase), cur: fix(compileBase, func(r *cc) {
				r.Cells[1].SpeedupVsUncached, r.Cells[2].SpeedupVsUncached = 1.5, 1.4
				r.Cells[2].CacheHits, r.Cells[2].CacheMisses, r.Cells[2].CacheHitRate = 90, 10, 0.90
			})},
		// The serial workers=1 row's counters are deterministic and exact.
		{test: "TestCompareReportsFlagsRegressions", name: "hit rate drop", exp: "compilespeed",
			base: fix(compileBase), cur: fix(compileBase, func(r *cc) { r.Cells[1].CacheHits, r.Cells[1].CacheMisses = 80, 20 }),
			want: "cache_hits 80, baseline 95; cache_misses 20, baseline 5"},
		{test: "TestCompareReportsFlagsRegressions", name: "speedup drop", exp: "compilespeed",
			base: fix(compileBase), cur: fix(compileBase, func(r *cc) { r.Cells[1].SpeedupVsUncached, r.Cells[2].SpeedupVsUncached = 1.0, 1.0 }),
			want: "Snort best: best speedup_vs_uncached 1.00x below baseline 1.80x"},
		{test: "TestCompareReportsFlagsRegressions", name: "shape drift", exp: "compilespeed",
			base: fix(compileBase), cur: fix(compileBase, func(r *cc) { r.Cells[1].States = 101 }),
			want: "Snort workers=1: changed on a same-scale/seed run: states 101, baseline 100"},
		{test: "TestCompareReportsFlagsRegressions", name: "missing cell", exp: "compilespeed",
			base: fix(compileBase), cur: fix(compileBase, func(r *cc) { r.Cells = r.Cells[:2] }),
			want: "Snort workers=2: missing from report"},
		// One noisy cell must not trip the gate while another cell of the
		// sweep still realizes the cache win; when every cell collapses the
		// gate fires once.
		{test: "TestCompareReportsSpeedupIsBestOfSweep", name: "noisy cell", exp: "compilespeed",
			base: fix(compileBase), cur: fix(compileBase, func(r *cc) { r.Cells[2].SpeedupVsUncached = 0.5 })},
		{test: "TestCompareReportsSpeedupIsBestOfSweep", name: "sweep collapse", exp: "compilespeed",
			base: fix(compileBase), cur: fix(compileBase, func(r *cc) { r.Cells[1].SpeedupVsUncached, r.Cells[2].SpeedupVsUncached = 0.6, 0.5 }),
			want: "best speedup"},
		// A benchmark whose baseline uncached compile is too quick to time is
		// exempt from the speedup gate, but not from the exact columns.
		{test: "TestCompareReportsTinyBenchmarksSkipSpeedupGate", name: "speedup noise", exp: "compilespeed",
			base: fix(compileBase, withTinyBro(1.7)), cur: fix(compileBase, withTinyBro(0.5))},
		{test: "TestCompareReportsTinyBenchmarksSkipSpeedupGate", name: "counters still gate", exp: "compilespeed",
			base: fix(compileBase, withTinyBro(1.7)),
			cur:  fix(compileBase, withTinyBro(0.5), func(r *cc) { r.Cells[4].CacheHits = 4 }),
			want: "Bro217 workers=1: changed on a same-scale/seed run: cache_hits 4, baseline 7"},
		{test: "TestCompareReportsShapeIgnoredAcrossScales", name: "rescaled", exp: "compilespeed",
			base: fix(compileBase), cur: fix(compileBase, func(r *cc) {
				r.Scale = 0.05
				r.Cells[0].States, r.Cells[1].States, r.Cells[2].States = 250, 250, 250
			})},

		// tierspeed
		{test: "TestCompareTierReportsIdenticalPasses", name: "identical", exp: "tierspeed",
			base: fix(tierBase), cur: fix(tierBase)},
		{test: "TestCompareTierReportsFlagsRegressions", name: "plan shape drift", exp: "tierspeed",
			base: fix(tierBase), cur: fix(tierBase, func(r *tc) { r.Cells[0].DFACCs = 81 }),
			want: "Snort: changed on a same-scale/seed run: dfa_ccs 81, baseline 82"},
		{test: "TestCompareTierReportsFlagsRegressions", name: "dfa state drift", exp: "tierspeed",
			base: fix(tierBase), cur: fix(tierBase, func(r *tc) { r.Cells[0].DFAStates++ }), want: "dfa_states 64118"},
		{test: "TestCompareTierReportsFlagsRegressions", name: "table size drift", exp: "tierspeed",
			base: fix(tierBase), cur: fix(tierBase, func(r *tc) { r.Cells[1].TableBytes = 1 }), want: "ExactMatch: changed on a same-scale/seed run: table_bytes 1"},
		{test: "TestCompareTierReportsFlagsRegressions", name: "speedup collapse", exp: "tierspeed",
			base: fix(tierBase), cur: fix(tierBase, func(r *tc) { r.Cells[0].SpeedupVsCompiled = 0.5 }),
			want: "Snort: speedup_vs_compiled 0.50x below baseline 1.30x (floor 0.98x at 25% tolerance)"},
		{test: "TestCompareTierReportsFlagsRegressions", name: "missing cell", exp: "tierspeed",
			base: fix(tierBase), cur: fix(tierBase, func(r *tc) { r.Cells = r.Cells[:1] }), want: "ExactMatch: missing from report"},
		{test: "TestCompareTierReportsSpeedupWithinTolerancePasses", name: "15% drop", exp: "tierspeed",
			base: fix(tierBase), cur: fix(tierBase, func(r *tc) { r.Cells[0].SpeedupVsCompiled = 1.1 })},
		{test: "TestCompareTierReportsTinyWallSkipsSpeedupGate", name: "8 ms wall", exp: "tierspeed",
			base: fix(tierBase), cur: fix(tierBase, func(r *tc) { r.Cells[1].SpeedupVsCompiled = 0.4 })},
		// A rescaled run checks speed only.
		{test: "TestCompareTierReportsShapeIgnoredAcrossScales", name: "rescaled", exp: "tierspeed",
			base: fix(tierBase), cur: fix(tierBase, func(r *tc) {
				r.Scale = 0.05
				r.Cells[0].DFAStates, r.Cells[1].CCs = 99999, 3
			})},

		// backendcmp
		{test: "TestCompareBackendReportsIdenticalPasses", name: "identical", exp: "backendcmp",
			base: fix(backendBase), cur: fix(backendBase)},
		{test: "TestCompareBackendReportsFlagsDrift", name: "state drift", exp: "backendcmp",
			base: fix(backendBase), cur: fix(backendBase, func(r *bc) { r.Cells[0].States++ }), want: "Snort/impala: changed on a same-scale/seed run: states 2450"},
		{test: "TestCompareBackendReportsFlagsDrift", name: "row drift", exp: "backendcmp",
			base: fix(backendBase), cur: fix(backendBase, func(r *bc) { r.Cells[1].Rows-- }), want: "Snort/cam: changed on a same-scale/seed run: rows 2599"},
		{test: "TestCompareBackendReportsFlagsDrift", name: "bank drift", exp: "backendcmp",
			base: fix(backendBase), cur: fix(backendBase, func(r *bc) { r.Cells[1].Groups = 12 }), want: "groups 12, baseline 11"},
		{test: "TestCompareBackendReportsFlagsDrift", name: "energy drift", exp: "backendcmp",
			base: fix(backendBase), cur: fix(backendBase, func(r *bc) { r.Cells[1].PJPerByte *= 1.01 }), want: "pj_per_byte"},
		{test: "TestCompareBackendReportsFlagsDrift", name: "area drift", exp: "backendcmp",
			base: fix(backendBase), cur: fix(backendBase, func(r *bc) { r.Cells[0].TotalMM2 += 0.001 }), want: "total_mm2 0.501, baseline 0.5"},
		{test: "TestCompareBackendReportsFlagsDrift", name: "missing cell", exp: "backendcmp",
			base: fix(backendBase), cur: fix(backendBase, func(r *bc) { r.Cells = r.Cells[:1] }), want: "Snort/cam: missing from report"},
		// Floats absorb JSON round-trip formatting, nothing more.
		{test: "TestCompareBackendReportsIdenticalPasses", name: "float formatting", exp: "backendcmp",
			base: fix(backendBase), cur: fix(backendBase, func(r *bc) { r.Cells[1].PJPerByte *= 1 + 1e-12 })},
		// The measured-throughput column is wall-clock noise and never gates.
		{test: "TestCompareBackendReportsIgnoresMeasuredMBs", name: "measured MB/s", exp: "backendcmp",
			base: fix(backendBase), cur: fix(backendBase, func(r *bc) { r.Cells[0].MeasuredMBs, r.Cells[1].MeasuredMBs = 1, 1e6 })},
		{test: "TestCompareBackendReportsShapeIgnoredAcrossScales", name: "rescaled", exp: "backendcmp",
			base: fix(backendBase), cur: fix(backendBase, func(r *bc) {
				r.Scale = 0.05
				r.Cells[0].States, r.Cells[1].PJPerByte = 99999, 40
			})},

		// servespeed
		{test: "TestCompareServeReports", name: "identical", exp: "servespeed",
			base: fix(serveBase), cur: fix(serveBase)},
		{test: "TestCompareServeReports", name: "shape drift", exp: "servespeed",
			base: fix(serveBase), cur: fix(serveBase, func(r *sv) { r.InputBytes++ }),
			want: "workload: changed on a same-scale/seed run: input_bytes 65537, baseline 65536"},
		{test: "TestCompareServeReports", name: "missing row", exp: "servespeed",
			base: fix(serveBase), cur: fix(serveBase, func(r *sv) { r.Cells = r.Cells[:2] }), want: "64 clients: missing from report"},
		{test: "TestCompareServeReports", name: "match drift", exp: "servespeed",
			base: fix(serveBase), cur: fix(serveBase, func(r *sv) { r.Cells[1].Matches-- }), want: "8 clients: changed on a same-scale/seed run: matches 95, baseline 96"},
		{test: "TestCompareServeReports", name: "another benchmark", exp: "servespeed",
			base: fix(serveBase), cur: fix(serveBase, func(r *sv) { r.Benchmark, r.States = "Snort", 2449 })},
		{test: "TestCompareServeReports", name: "concurrency regression", exp: "servespeed",
			base: fix(serveBase), cur: fix(serveBase, func(r *sv) { r.Cells[2].SpeedupVs1 = 0.5 }),
			want: "64 clients: speedup_vs_1 0.50x below baseline 3.00x"},
		{test: "TestCompareServeReports", name: "single-core checker", exp: "servespeed",
			base: fix(serveBase), cur: fix(serveBase, func(r *sv) { r.GOMAXPROCS, r.Cells[2].SpeedupVs1 = 1, 0.5 })},
		// A single-core baseline has no concurrency-speedup mechanism: its
		// ratios are noise around 1.0 and must not arm the floor either.
		{test: "TestCompareServeReports", name: "single-core baseline", exp: "servespeed",
			base: fix(serveBase, func(r *sv) { r.GOMAXPROCS = 1 }),
			cur:  fix(serveBase, func(r *sv) { r.Cells[1].SpeedupVs1, r.Cells[2].SpeedupVs1 = 0.3, 0.3 })},
		// A baseline row where concurrency lost ground is a negative control.
		{test: "TestCompareServeReports", name: "negative control", exp: "servespeed",
			base: fix(serveBase, func(r *sv) { r.Cells[2].SpeedupVs1 = 0.8 }),
			cur:  fix(serveBase, func(r *sv) { r.Cells[2].SpeedupVs1 = 0.3 })},

		// shardspeed
		{test: "TestCompareShardReportsIdenticalPasses", name: "identical", exp: "shardspeed",
			base: fix(shardBase), cur: fix(shardBase)},
		{test: "TestCompareShardReportsFlagsDrift", name: "input size", exp: "shardspeed",
			base: fix(shardBase), cur: fix(shardBase, func(r *sh) { r.InputKB = 64 }),
			want: "input size 64 KB does not match baseline's 1024 KB; rerun with -input-kb 1024"},
		{test: "TestCompareShardReportsFlagsDrift", name: "missing cell", exp: "shardspeed",
			base: fix(shardBase), cur: fix(shardBase, func(r *sh) { r.Cells = r.Cells[:1] }), want: "B: missing from report", n: 6}, // + 4 sweep points + the headline
		{test: "TestCompareShardReportsFlagsDrift", name: "budget drift", exp: "shardspeed",
			base: fix(shardBase), cur: fix(shardBase, func(r *sh) { r.Cells[0].Budget++ }), want: "A: changed on a same-scale/seed run: budget 401, baseline 400"},
		{test: "TestCompareShardReportsFlagsDrift", name: "missing sweep point", exp: "shardspeed",
			base: fix(shardBase), cur: fix(shardBase, func(r *sh) { r.Cells[0].Ks = r.Cells[0].Ks[:3] }), want: "A K=8: missing from report", n: 2},
		{test: "TestCompareShardReportsFlagsDrift", name: "partition drift", exp: "shardspeed",
			base: fix(shardBase), cur: fix(shardBase, func(r *sh) { r.Cells[0].Ks[3].DFAStates-- }), want: "A K=8: changed on a same-scale/seed run: dfa_states 399, baseline 400"},
		// A different scale is a different workload: only the ratios stay armed.
		{test: "TestCompareShardReportsFlagsDrift", name: "rescaled", exp: "shardspeed",
			base: fix(shardBase), cur: fix(shardBase, func(r *sh) { r.Scale = 0.05; r.Cells[0].Ks[3].DFAStates-- })},
		{test: "TestCompareShardReportsFlagsDrift", name: "speedup regression", exp: "shardspeed",
			base: fix(shardBase), cur: fix(shardBase, func(r *sh) { r.Cells[0].Ks[2].SpeedupVs1 = 1.0 }),
			want: "A K=4: speedup_vs_1 1.00x below baseline 4.00x"},
		// A baseline row where sharding lost ground is a negative control.
		{test: "TestCompareShardReportsFlagsDrift", name: "negative control", exp: "shardspeed",
			base: fix(shardBase, func(r *sh) { r.Cells[0].Ks[1].SpeedupVs1 = 0.9 }),
			cur:  fix(shardBase, func(r *sh) { r.Cells[0].Ks[1].SpeedupVs1 = 0.4 })},
		// The headline is tolerance-independent: 1.9x passes every per-row
		// floor at 90% tolerance and still misses 2x.
		{test: "TestCompareShardReportsTwoXGate", name: "armed", exp: "shardspeed",
			base: fix(shardBase), cur: fix(shardBase, shardK8(1.9)), opt: CheckOptions{SpeedupTolerance: 0.9},
			want: "only 0 benchmark(s) reach 2x at 8 shards"},
		// A baseline that never met the claim cannot fail it: the count is a note.
		{test: "TestCompareShardReportsTwoXGate", name: "baseline misses claim", exp: "shardspeed",
			base: fix(shardBase, shardK8(1.7)), cur: fix(shardBase, shardK8(1.5)),
			note: "0 benchmark(s) reach 2x at 8 shards"},
		{test: "TestCompareShardReportsTwoXGate", name: "untimed baseline", exp: "shardspeed",
			base: fix(shardBase, func(r *sh) { r.Cells[0].Ks[0].WallMS = 1 }), cur: fix(shardBase, shardK8(1.9)),
			opt: CheckOptions{SpeedupTolerance: 0.9}, note: "0 benchmark(s) reach 2x"},
		// A single-core checker is exempt from every wall-clock gate.
		{test: "TestCompareShardReportsSingleCoreSkipsSpeedups", name: "1 core vs 4", exp: "shardspeed",
			base: fix(shardBase), cur: fix(shardBase, func(r *sh) {
				r.GOMAXPROCS = 1
				for i := range r.Cells {
					for j := range r.Cells[i].Ks {
						r.Cells[i].Ks[j].SpeedupVs1 = 0.5
					}
				}
			}), note: "not gated"},

		// clustersweep
		// Throughput is informational: wildly different wall-clock must not gate.
		{test: "TestCompareClusterReportsIdenticalPasses", name: "identical", exp: "clustersweep",
			base: fix(clusterBase), cur: fix(clusterBase, func(r *cl) { r.Cells[0].MBPerSec, r.GOMAXPROCS = 0.001, 1 })},
		{test: "TestCompareClusterReportsFlagsDrift", name: "missing cell", exp: "clustersweep",
			base: fix(clusterBase), cur: fix(clusterBase, func(r *cl) { r.Cells = r.Cells[:1] }), want: "B K=2 uniform2: missing from report"},
		{test: "TestCompareClusterReportsFlagsDrift", name: "state drift", exp: "clustersweep",
			base: fix(clusterBase), cur: fix(clusterBase, func(r *cl) { r.Cells[0].States += 5 }), want: "A K=2 uniform2: changed on a same-scale/seed run: states 105"},
		{test: "TestCompareClusterReportsFlagsDrift", name: "placement drift", exp: "clustersweep",
			base: fix(clusterBase), cur: fix(clusterBase, func(r *cl) { r.Cells[0].ShardDomain = []int{1, 0} }), want: "shard_domain [1 0], baseline [0 1]"},
		{test: "TestCompareClusterReportsFlagsDrift", name: "cut cost drift", exp: "clustersweep",
			base: fix(clusterBase), cur: fix(clusterBase, func(r *cl) { r.Cells[0].CutCost++ }), want: "cut_cost 4, baseline 3"},
		{test: "TestCompareClusterReportsFlagsDrift", name: "match drift", exp: "clustersweep",
			base: fix(clusterBase), cur: fix(clusterBase, func(r *cl) { r.Cells[1].Matches++ }), want: "B K=2 uniform2: changed on a same-scale/seed run: matches 18"},
		{test: "TestCompareClusterReportsFlagsDrift", name: "rescaled", exp: "clustersweep",
			base: fix(clusterBase), cur: fix(clusterBase, func(r *cl) {
				r.Scale = 0.05
				r.Cells[0].Matches++
				r.Cells[0].ShardDomain = []int{1, 0}
			})},

		// scorespeed
		{test: "TestCompareScoreReportsIdenticalPasses", name: "identical", exp: "scorespeed",
			base: fix(scoreBase), cur: fix(scoreBase)},
		{test: "TestCompareScoreReportsFlagsDrift", name: "input size", exp: "scorespeed",
			base: fix(scoreBase), cur: fix(scoreBase, func(r *sc) { r.InputKB = 64 }), want: "input size 64 KB"},
		{test: "TestCompareScoreReportsFlagsDrift", name: "missing cell", exp: "scorespeed",
			base: fix(scoreBase), cur: fix(scoreBase, func(r *sc) { r.Cells = r.Cells[:1] }), want: "Entity-fuzzy: missing from report"},
		{test: "TestCompareScoreReportsFlagsDrift", name: "shape drift", exp: "scorespeed",
			base: fix(scoreBase), cur: fix(scoreBase, func(r *sc) { r.Cells[0].WeightedEdges++ }), want: "DNA-align: changed on a same-scale/seed run: weighted_edges 601"},
		{test: "TestCompareScoreReportsFlagsDrift", name: "threshold drift", exp: "scorespeed",
			base: fix(scoreBase), cur: fix(scoreBase, func(r *sc) { r.Cells[1].Threshold = 8 }), want: "threshold 8, baseline 9"},
		{test: "TestCompareScoreReportsFlagsDrift", name: "report-count drift", exp: "scorespeed",
			base: fix(scoreBase), cur: fix(scoreBase, func(r *sc) { r.Cells[0].ScoredReports-- }), want: "scored_reports 59, baseline 60"},
		{test: "TestCompareScoreReportsFlagsDrift", name: "rescaled", exp: "scorespeed",
			base: fix(scoreBase), cur: fix(scoreBase, func(r *sc) { r.Scale = 0.05; r.Cells[0].WeightedEdges++; r.Cells[0].ScoredReports-- })},
		{test: "TestCompareScoreReportsFlagsDrift", name: "overhead regression", exp: "scorespeed",
			base: fix(scoreBase), cur: fix(scoreBase, func(r *sc) { r.Cells[0].RelThroughput = 0.3 }),
			want: "DNA-align: rel_throughput 0.30x below baseline 0.80x"},
		// A binary scan below MinWallMS never arms the ratio.
		{test: "TestCompareScoreReportsFlagsDrift", name: "untimed cell", exp: "scorespeed",
			base: fix(scoreBase, func(r *sc) { r.Cells[0].BinaryWallMS = 1 }),
			cur:  fix(scoreBase, func(r *sc) { r.Cells[0].RelThroughput = 0.1 })},

		// One rule for all seven: a different input size is flagged outright
		// and nothing else is compared.
		{test: "TestCompareInputSizeMismatch", name: "compilespeed", exp: "compilespeed",
			base: fix(compileBase), cur: fix(compileBase, func(r *cc) { r.InputKB = 64; r.Cells = nil }), want: "input size"},
		{test: "TestCompareInputSizeMismatch", name: "tierspeed", exp: "tierspeed",
			base: fix(tierBase), cur: fix(tierBase, func(r *tc) { r.InputKB = 64; r.Cells = nil }), want: "input size"},
		{test: "TestCompareInputSizeMismatch", name: "backendcmp", exp: "backendcmp",
			base: fix(backendBase), cur: fix(backendBase, func(r *bc) { r.InputKB = 8; r.Cells = nil }), want: "input size"},
		{test: "TestCompareInputSizeMismatch", name: "clustersweep", exp: "clustersweep",
			base: fix(clusterBase), cur: fix(clusterBase, func(r *cl) { r.InputKB = 64; r.Cells = nil }), want: "input size"},
	}
}

// runGateCases runs the matrix rows that belong to the calling test.
func runGateCases(t *testing.T) {
	ran := 0
	for _, tc := range gateCases() {
		if tc.test != t.Name() {
			continue
		}
		ran++
		t.Run(tc.name, func(t *testing.T) {
			bad, notes := gateByID(t, tc.exp).Compare(tc.base, tc.cur, tc.opt)
			n := tc.n
			if n == 0 && tc.want != "" {
				n = 1
			}
			if len(bad) != n || !strings.Contains(strings.Join(bad, "\n"), tc.want) {
				t.Errorf("want %d regression(s) containing %q, got %q", n, tc.want, bad)
			}
			if !strings.Contains(strings.Join(notes, "\n"), tc.note) {
				t.Errorf("want a note containing %q, got %q", tc.note, notes)
			}
		})
	}
	if ran == 0 {
		t.Fatal("no matrix rows for this test")
	}
}

// The comparator matrix keeps the names its rows had when each experiment
// carried its own comparator; every function runs its rows of gateCases.
func TestCompareReportsIdenticalPasses(t *testing.T)                  { runGateCases(t) }
func TestCompareReportsWithinToleranceMixedNoise(t *testing.T)        { runGateCases(t) }
func TestCompareReportsFlagsRegressions(t *testing.T)                 { runGateCases(t) }
func TestCompareReportsSpeedupIsBestOfSweep(t *testing.T)             { runGateCases(t) }
func TestCompareReportsTinyBenchmarksSkipSpeedupGate(t *testing.T)    { runGateCases(t) }
func TestCompareReportsShapeIgnoredAcrossScales(t *testing.T)         { runGateCases(t) }
func TestCompareTierReportsIdenticalPasses(t *testing.T)              { runGateCases(t) }
func TestCompareTierReportsFlagsRegressions(t *testing.T)             { runGateCases(t) }
func TestCompareTierReportsSpeedupWithinTolerancePasses(t *testing.T) { runGateCases(t) }
func TestCompareTierReportsTinyWallSkipsSpeedupGate(t *testing.T)     { runGateCases(t) }
func TestCompareTierReportsShapeIgnoredAcrossScales(t *testing.T)     { runGateCases(t) }
func TestCompareBackendReportsIdenticalPasses(t *testing.T)           { runGateCases(t) }
func TestCompareBackendReportsFlagsDrift(t *testing.T)                { runGateCases(t) }
func TestCompareBackendReportsIgnoresMeasuredMBs(t *testing.T)        { runGateCases(t) }
func TestCompareBackendReportsShapeIgnoredAcrossScales(t *testing.T)  { runGateCases(t) }
func TestCompareServeReports(t *testing.T)                            { runGateCases(t) }
func TestCompareShardReportsIdenticalPasses(t *testing.T)             { runGateCases(t) }
func TestCompareShardReportsFlagsDrift(t *testing.T)                  { runGateCases(t) }
func TestCompareShardReportsTwoXGate(t *testing.T)                    { runGateCases(t) }
func TestCompareShardReportsSingleCoreSkipsSpeedups(t *testing.T)     { runGateCases(t) }
func TestCompareClusterReportsIdenticalPasses(t *testing.T)           { runGateCases(t) }
func TestCompareClusterReportsFlagsDrift(t *testing.T)                { runGateCases(t) }
func TestCompareScoreReportsIdenticalPasses(t *testing.T)             { runGateCases(t) }
func TestCompareScoreReportsFlagsDrift(t *testing.T)                  { runGateCases(t) }
func TestCompareInputSizeMismatch(t *testing.T)                       { runGateCases(t) }

// testGateRead pins the one reader for a gate: a written report reads back
// and self-compares clean; malformed JSON, a report without cells and a
// report another experiment wrote are rejected.
func testGateRead(t *testing.T, base AnyReport, id, otherID string) {
	g := gateByID(t, id)
	var buf bytes.Buffer
	if err := base.Write(&buf); err != nil {
		t.Fatal(err)
	}
	written := buf.String()
	back, err := g.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if bad, _ := g.Compare(base, back, CheckOptions{}); len(bad) != 0 {
		t.Fatalf("round-tripped report flagged: %v", bad)
	}
	if strings.Contains(written, `"experiment"`) {
		t.Fatalf("a report no gate ran names an experiment:\n%s", written)
	}
	for name, doc := range map[string]string{
		"malformed JSON":     "{not json",
		"no cells":           `{"cells":[]}`,
		"another experiment": strings.Replace(written, "{", `{"experiment": "`+otherID+`",`, 1),
	} {
		if _, err := g.Read(strings.NewReader(doc)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	own := strings.Replace(written, "{", `{"experiment": "`+id+`",`, 1)
	if _, err := g.Read(strings.NewReader(own)); err != nil {
		t.Errorf("report naming its own experiment rejected: %v", err)
	}
}

func TestReadCompileReportRoundTrip(t *testing.T) {
	testGateRead(t, compileBase(), "compilespeed", "backendcmp")
}
func TestReadTierReportRejectsEmpty(t *testing.T) {
	testGateRead(t, tierBase(), "tierspeed", "backendcmp")
}
func TestReadBackendReportRejectsEmpty(t *testing.T) {
	testGateRead(t, backendBase(), "backendcmp", "compilespeed")
}
func TestReadServeReportRejects(t *testing.T) {
	testGateRead(t, serveBase(), "servespeed", "tierspeed")
}
func TestReadShardReportRejects(t *testing.T) {
	testGateRead(t, shardBase(), "shardspeed", "tierspeed")
}
func TestReadClusterReportRejects(t *testing.T) {
	testGateRead(t, clusterBase(), "clustersweep", "shardspeed")
}
func TestReadScoreReportRejects(t *testing.T) {
	testGateRead(t, scoreBase(), "scorespeed", "tierspeed")
}

// The seven committed baselines predate the shared envelope: each must still
// load through the one reader, project rows, and self-compare clean — the pin
// that the on-disk schema did not move.
func TestCommittedBaselinesSelfCompare(t *testing.T) {
	files := map[string]string{
		"compilespeed": "BENCH_compile.json",
		"tierspeed":    "BENCH_sim.json",
		"backendcmp":   "BENCH_backend.json",
		"servespeed":   "BENCH_serve.json",
		"shardspeed":   "BENCH_shard.json",
		"clustersweep": "BENCH_cluster.json",
		"scorespeed":   "BENCH_score.json",
	}
	gates := Gates()
	if len(gates) != len(files) {
		t.Fatalf("%d gates, %d committed baselines", len(gates), len(files))
	}
	for _, g := range gates {
		t.Run(g.ID(), func(t *testing.T) {
			raw, err := os.ReadFile("../../" + files[g.ID()])
			if err != nil {
				t.Fatal(err)
			}
			base, err := g.Read(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			if bad, _ := g.Compare(base, base, CheckOptions{}); len(bad) != 0 {
				t.Fatalf("committed baseline fails its own gate: %v", bad)
			}
			if tab := g.Table(base); len(tab.Rows) == 0 {
				t.Fatal("committed baseline renders no rows")
			}
			// Nothing the file holds is dropped, renamed or reordered on
			// the way through the envelope.
			var buf bytes.Buffer
			if err := base.Write(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), raw) {
				t.Fatal("committed baseline does not rewrite byte-identically")
			}
		})
	}
}

// Gate.Run is the instrumented run behind -json/-check: the report names its
// experiment, carries the subsystem's counters, and passes its own gate.
func TestGateRunStampsAndInstruments(t *testing.T) {
	g := gateByID(t, "scorespeed")
	rep, err := g.Run(scoreTiny())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"experiment": "scorespeed"`, `"score_reports_total"`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("report lacks %s:\n%s", want, buf.String())
		}
	}
	back, err := g.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if bad, _ := g.Compare(back, rep, CheckOptions{}); len(bad) != 0 {
		t.Fatalf("fresh report fails its own gate: %v", bad)
	}
	o := scoreTiny()
	o.Benchmarks = []string{"NoSuchBenchmark"}
	if _, err := gateByID(t, "tierspeed").Run(o); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}
