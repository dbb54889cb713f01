package exp

import (
	"bytes"
	"encoding/json"
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

// roundTrip writes rep the way gate id's Run would — stamped with the
// experiment's name — and reads it back through the gate's reader.
func roundTrip[C any](t *testing.T, rep *Report[C], id string) *Report[C] {
	t.Helper()
	stamped := *rep
	stamped.Experiment = id
	var buf bytes.Buffer
	if err := stamped.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := gateByID(t, id).Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back.(*Report[C])
}

// Synthetic baselines, one per gated experiment.

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

func tierBase() *Report[TierCell] {
	return &Report[TierCell]{
		Design: "Impala 4-bit stride-4 (16 bits/cycle)",
		Scale:  0.02, Seed: 1, GOMAXPROCS: 4, InputKB: 256,
		Cells: []TierCell{
			{Benchmark: "Snort", States: 2449, CCs: 112, DFACCs: 82,
				DFAStates: 64117, DFANFAStates: 1800, NFATierStates: 649,
				TableBytes: 4 << 20, CompiledWallMS: 50, SpeedupVsCompiled: 1.3},
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
// must produce n drifted rows, one of them containing want (want == "" means
// a clean pass).
type gateCase struct {
	test, name string // the Test function that runs the row, and its subtest
	exp        string
	base, cur  AnyReport
	want       string
	n          int // drifted rows expected; 0 means 1 when want != ""
}

func gateCases() []gateCase {
	type (
		cc = Report[CompileCell]
		tc = Report[TierCell]
		bc = Report[BackendCell]
		sh = Report[ShardCell]
		cl = Report[ClusterCell]
		sc = Report[ScoreCell]
	)
	return []gateCase{
		// compilespeed
		{test: "TestCompareReportsIdenticalPasses", name: "identical", exp: "compilespeed",
			base: fix(compileBase), cur: fix(compileBase)},
		// The serial workers=1 row's counters are deterministic and exact.
		{test: "TestCompareReportsFlagsRegressions", name: "hit rate drop", exp: "compilespeed",
			base: fix(compileBase), cur: fix(compileBase, func(r *cc) { r.Cells[1].CacheHits, r.Cells[1].CacheMisses = 80, 20 }),
			want: "cache_hits 80, baseline 95; cache_misses 20, baseline 5"},
		// A speedup is a timing, not a projected column: one that moves
		// compares clean (here and in the rows like it below).
		{test: "TestCompareReportsFlagsRegressions", name: "speedup drop", exp: "compilespeed",
			base: fix(compileBase), cur: fix(compileBase, func(r *cc) { r.Cells[1].SpeedupVsUncached, r.Cells[2].SpeedupVsUncached = 1.0, 1.0 })},
		{test: "TestCompareReportsFlagsRegressions", name: "shape drift", exp: "compilespeed",
			base: fix(compileBase), cur: fix(compileBase, func(r *cc) { r.Cells[1].States = 101 }),
			want: "Snort workers=1: changed on a same-scale/seed run: states 101, baseline 100"},
		{test: "TestCompareReportsFlagsRegressions", name: "missing cell", exp: "compilespeed",
			base: fix(compileBase), cur: fix(compileBase, func(r *cc) { r.Cells = r.Cells[:2] }),
			want: "Snort workers=2: missing from report"},
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
			base: fix(tierBase), cur: fix(tierBase, func(r *tc) { r.Cells[0].SpeedupVsCompiled = 0.5 })},
		{test: "TestCompareTierReportsFlagsRegressions", name: "missing cell", exp: "tierspeed",
			base: fix(tierBase), cur: fix(tierBase, func(r *tc) { r.Cells = r.Cells[:1] }), want: "ExactMatch: missing from report"},
		// A rescaled run is a different workload: nothing is compared.
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
		{test: "TestCompareBackendReportsIgnoresMeasuredMBs", name: "measured MB/s", exp: "backendcmp",
			base: fix(backendBase), cur: fix(backendBase, func(r *bc) { r.Cells[0].MeasuredMBs, r.Cells[1].MeasuredMBs = 1, 1e6 })},
		{test: "TestCompareBackendReportsShapeIgnoredAcrossScales", name: "rescaled", exp: "backendcmp",
			base: fix(backendBase), cur: fix(backendBase, func(r *bc) {
				r.Scale = 0.05
				r.Cells[0].States, r.Cells[1].PJPerByte = 99999, 40
			})},

		// shardspeed
		{test: "TestCompareShardReportsIdenticalPasses", name: "identical", exp: "shardspeed",
			base: fix(shardBase), cur: fix(shardBase)},
		{test: "TestCompareShardReportsFlagsDrift", name: "input size", exp: "shardspeed",
			base: fix(shardBase), cur: fix(shardBase, func(r *sh) { r.InputKB = 64 }),
			want: "input size 64 KB does not match baseline's 1024 KB"},
		{test: "TestCompareShardReportsFlagsDrift", name: "missing cell", exp: "shardspeed",
			base: fix(shardBase), cur: fix(shardBase, func(r *sh) { r.Cells = r.Cells[:1] }), want: "B: missing from report", n: 5}, // + 4 sweep points
		{test: "TestCompareShardReportsFlagsDrift", name: "budget drift", exp: "shardspeed",
			base: fix(shardBase), cur: fix(shardBase, func(r *sh) { r.Cells[0].Budget++ }), want: "A: changed on a same-scale/seed run: budget 401, baseline 400"},
		{test: "TestCompareShardReportsFlagsDrift", name: "missing sweep point", exp: "shardspeed",
			base: fix(shardBase), cur: fix(shardBase, func(r *sh) { r.Cells[0].Ks = r.Cells[0].Ks[:3] }), want: "A K=8: missing from report"},
		{test: "TestCompareShardReportsFlagsDrift", name: "partition drift", exp: "shardspeed",
			base: fix(shardBase), cur: fix(shardBase, func(r *sh) { r.Cells[0].Ks[3].DFAStates-- }), want: "A K=8: changed on a same-scale/seed run: dfa_states 399, baseline 400"},
		{test: "TestCompareShardReportsFlagsDrift", name: "rescaled", exp: "shardspeed",
			base: fix(shardBase), cur: fix(shardBase, func(r *sh) { r.Scale = 0.05; r.Cells[0].Ks[3].DFAStates-- })},
		{test: "TestCompareShardReportsFlagsDrift", name: "speedup regression", exp: "shardspeed",
			base: fix(shardBase), cur: fix(shardBase, func(r *sh) { r.Cells[0].Ks[2].SpeedupVs1 = 1.0 })},
		{test: "TestCompareShardReportsFlagsDrift", name: "negative control", exp: "shardspeed",
			base: fix(shardBase, func(r *sh) { r.Cells[0].Ks[1].SpeedupVs1 = 0.9 }),
			cur:  fix(shardBase, func(r *sh) { r.Cells[0].Ks[1].SpeedupVs1 = 0.4 })},

		// clustersweep
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
			base: fix(scoreBase), cur: fix(scoreBase, func(r *sc) { r.Cells[0].RelThroughput = 0.3 })},
		{test: "TestCompareScoreReportsFlagsDrift", name: "untimed cell", exp: "scorespeed",
			base: fix(scoreBase, func(r *sc) { r.Cells[0].BinaryWallMS = 1 }),
			cur:  fix(scoreBase, func(r *sc) { r.Cells[0].RelThroughput = 0.1 })},

		// One rule for all six: a different input size is flagged outright
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
			bad := gateByID(t, tc.exp).Compare(tc.base, tc.cur)
			n := tc.n
			if n == 0 && tc.want != "" {
				n = 1
			}
			if len(bad) != n || !strings.Contains(strings.Join(bad, "\n"), tc.want) {
				t.Errorf("want %d drifted row(s) containing %q, got %q", n, tc.want, bad)
			}
		})
	}
	if ran == 0 {
		t.Fatal("no matrix rows for this test")
	}
}

// The comparator matrix keeps the names its rows had when each experiment
// carried its own comparator; every function runs its rows of gateCases.
func TestCompareReportsIdenticalPasses(t *testing.T)                 { runGateCases(t) }
func TestCompareReportsFlagsRegressions(t *testing.T)                { runGateCases(t) }
func TestCompareReportsShapeIgnoredAcrossScales(t *testing.T)        { runGateCases(t) }
func TestCompareTierReportsIdenticalPasses(t *testing.T)             { runGateCases(t) }
func TestCompareTierReportsFlagsRegressions(t *testing.T)            { runGateCases(t) }
func TestCompareTierReportsShapeIgnoredAcrossScales(t *testing.T)    { runGateCases(t) }
func TestCompareBackendReportsIdenticalPasses(t *testing.T)          { runGateCases(t) }
func TestCompareBackendReportsFlagsDrift(t *testing.T)               { runGateCases(t) }
func TestCompareBackendReportsIgnoresMeasuredMBs(t *testing.T)       { runGateCases(t) }
func TestCompareBackendReportsShapeIgnoredAcrossScales(t *testing.T) { runGateCases(t) }
func TestCompareShardReportsIdenticalPasses(t *testing.T)            { runGateCases(t) }
func TestCompareShardReportsFlagsDrift(t *testing.T)                 { runGateCases(t) }
func TestCompareClusterReportsIdenticalPasses(t *testing.T)          { runGateCases(t) }
func TestCompareClusterReportsFlagsDrift(t *testing.T)               { runGateCases(t) }
func TestCompareScoreReportsIdenticalPasses(t *testing.T)            { runGateCases(t) }
func TestCompareScoreReportsFlagsDrift(t *testing.T)                 { runGateCases(t) }
func TestCompareInputSizeMismatch(t *testing.T)                      { runGateCases(t) }

// testGateRead pins the one reader for a gate: a report that names the
// experiment reads back and self-compares clean; malformed JSON, a report
// without cells, a report another experiment wrote and a report that names no
// experiment are rejected.
func testGateRead[C any](t *testing.T, base *Report[C], id, otherID string) {
	g := gateByID(t, id)
	if bad := g.Compare(base, roundTrip(t, base, id)); len(bad) != 0 {
		t.Fatalf("round-tripped report flagged: %v", bad)
	}
	var buf bytes.Buffer
	if err := base.Write(&buf); err != nil {
		t.Fatal(err)
	}
	unnamed := buf.String()
	if strings.Contains(unnamed, `"experiment"`) {
		t.Fatalf("a report no gate ran names an experiment:\n%s", unnamed)
	}
	for name, doc := range map[string]string{
		"malformed JSON":     "{not json",
		"no cells":           `{"experiment": "` + id + `", "cells":[]}`,
		"another experiment": strings.Replace(unnamed, "{", `{"experiment": "`+otherID+`",`, 1),
		"no experiment":      unnamed,
	} {
		if _, err := g.Read(strings.NewReader(doc)); err == nil {
			t.Errorf("%s accepted", name)
		}
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
func TestReadShardReportRejects(t *testing.T) {
	testGateRead(t, shardBase(), "shardspeed", "tierspeed")
}
func TestReadClusterReportRejects(t *testing.T) {
	testGateRead(t, clusterBase(), "clustersweep", "shardspeed")
}
func TestReadScoreReportRejects(t *testing.T) {
	testGateRead(t, scoreBase(), "scorespeed", "tierspeed")
}

// committedBaseline reads gate g's committed BENCH_*.json (the Makefile's
// GATED list names the same files).
func committedBaseline(t *testing.T, g Gate) (raw []byte, base AnyReport) {
	t.Helper()
	file := map[string]string{
		"compilespeed": "BENCH_compile.json",
		"tierspeed":    "BENCH_sim.json",
		"backendcmp":   "BENCH_backend.json",
		"shardspeed":   "BENCH_shard.json",
		"clustersweep": "BENCH_cluster.json",
		"scorespeed":   "BENCH_score.json",
	}[g.ID()]
	if file == "" {
		t.Fatalf("gate %s has no committed baseline", g.ID())
	}
	raw, err := os.ReadFile("../../" + file)
	if err != nil {
		t.Fatal(err)
	}
	base, err = g.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return raw, base
}

// TestBaselines is the one place a committed baseline is compared: each gated
// experiment is rerun at its baseline's scale, seed and input size, and any
// drifted column fails by name. Only deterministic columns are projected, so
// the result does not depend on the host or its load; wall clock is compared
// in benchmark/, in alternating pairs.
func TestBaselines(t *testing.T) {
	if testing.Short() {
		t.Skip("reruns the six gated experiments (~11 s)")
	}
	for _, g := range Gates() {
		t.Run(g.ID(), func(t *testing.T) {
			raw, base := committedBaseline(t, g)
			var env struct {
				Scale   float64 `json:"scale"`
				Seed    int64   `json:"seed"`
				InputKB int     `json:"input_kb"`
			}
			if err := json.Unmarshal(raw, &env); err != nil {
				t.Fatal(err)
			}
			cur, err := g.Run(Options{Scale: env.Scale, Seed: env.Seed, InputKB: env.InputKB})
			if err != nil {
				t.Fatal(err)
			}
			for _, msg := range g.Compare(base, cur) {
				t.Error(msg)
			}
		})
	}
}

// Each committed baseline loads through the one reader, projects rows,
// self-compares clean and rewrites byte-identically: nothing the file holds
// is dropped, renamed or reordered on the way through the envelope.
func TestCommittedBaselinesSelfCompare(t *testing.T) {
	for _, g := range Gates() {
		t.Run(g.ID(), func(t *testing.T) {
			raw, base := committedBaseline(t, g)
			if bad := g.Compare(base, base); len(bad) != 0 {
				t.Fatalf("committed baseline fails its own gate: %v", bad)
			}
			if tab := g.Table(base); len(tab.Rows) == 0 {
				t.Fatal("committed baseline renders no rows")
			}
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

// projected exposes a gate's row projection to the test below.
func (g *gate[C]) projected(rep AnyReport) []Row { return g.rows(rep.(*Report[C])) }

// isTiming reports whether a cell's JSON key holds a measured timing or a
// quotient of two: the fields no row may project.
func isTiming(key string) bool {
	return strings.HasSuffix(key, "_mbs") || strings.HasSuffix(key, "_ms") ||
		strings.HasSuffix(key, "mb_per_sec") || strings.Contains(key, "speedup") ||
		key == "rel_throughput"
}

// mapNumbers replaces every number under v for which pick(key) holds, key
// being the nearest enclosing object member's name (so the elements of an
// array member count as that member), and returns how many it replaced.
func mapNumbers(v any, key string, pick func(key string) bool, f func(float64) float64) (any, int) {
	n := 0
	switch x := v.(type) {
	case float64:
		if pick(key) {
			return f(x), 1
		}
	case []any:
		for i := range x {
			var k int
			x[i], k = mapNumbers(x[i], key, pick, f)
			n += k
		}
	case map[string]any:
		for name := range x {
			var k int
			x[name], k = mapNumbers(x[name], name, pick, f)
			n += k
		}
	}
	return v, n
}

// The comparator sees projected columns and nothing else: over every gate's
// committed baseline, a report that differs only in fields no row projects
// compares clean, flipping any one projected column is flagged under that
// column's name on exactly the rows that project it, and a report of another
// input size is refused outright.
func TestCompareSeesProjectedColumnsOnly(t *testing.T) {
	for _, g := range Gates() {
		t.Run(g.ID(), func(t *testing.T) {
			raw, base := committedBaseline(t, g)
			// variant decodes the committed file, lets edit change it, and
			// reads the result back through the gate.
			variant := func(edit func(doc map[string]any)) AnyReport {
				var doc map[string]any
				if err := json.Unmarshal(raw, &doc); err != nil {
					t.Fatal(err)
				}
				edit(doc)
				out, err := json.Marshal(doc)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := g.Read(bytes.NewReader(out))
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			all := func(string) bool { return true }
			times100 := func(x float64) float64 { return x * 100 }
			plus1 := func(x float64) float64 { return x + 1 }

			noise := variant(func(doc map[string]any) {
				if _, n := mapNumbers(doc["cells"], "", isTiming, times100); n == 0 {
					t.Fatal("the baseline's cells carry no timing field")
				}
				mapNumbers(doc["metrics"], "", all, times100)
				doc["gomaxprocs"] = 100.0
			})
			if bad := g.Compare(base, noise); len(bad) != 0 {
				t.Errorf("a report differing only in unprojected fields is flagged: %q", bad)
			}

			rowsWith := map[string]int{}
			for _, r := range g.(interface{ projected(AnyReport) []Row }).projected(base) {
				for _, c := range r.Exact {
					if isTiming(c.Name) {
						t.Errorf("%s projects the timing %s", r.Key, c.Name)
					}
					rowsWith[c.Name]++
				}
			}
			for col, rows := range rowsWith {
				cur := variant(func(doc map[string]any) {
					mapNumbers(doc["cells"], "", func(key string) bool { return key == col }, plus1)
				})
				bad := g.Compare(base, cur)
				if len(bad) != rows {
					t.Errorf("%s flipped: %d rows flagged, %d project it: %q", col, len(bad), rows, bad)
				}
				for _, msg := range bad {
					if !strings.Contains(msg, ": "+col+" ") || strings.Contains(msg, ";") {
						t.Errorf("%s flipped: flagged as %q", col, msg)
					}
				}
			}

			resized := variant(func(doc map[string]any) {
				mapNumbers(doc["cells"], "", isTiming, times100)
				kb, _ := doc["input_kb"].(float64)
				doc["input_kb"] = kb + 1
			})
			if bad := g.Compare(base, resized); len(bad) != 1 || !strings.Contains(bad[0], "input size") {
				t.Errorf("another input size: want one refusal, got %q", bad)
			}
		})
	}
}

// Gate.Run is the instrumented run behind -json and TestBaselines: the report
// names its experiment, carries the subsystem's counters, and passes its own
// gate.
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
	if bad := g.Compare(back, rep); len(bad) != 0 {
		t.Fatalf("fresh report fails its own gate: %v", bad)
	}
	o := scoreTiny()
	o.Benchmarks = []string{"NoSuchBenchmark"}
	if _, err := gateByID(t, "tierspeed").Run(o); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}
