package shard_test

import (
	"reflect"
	"runtime"
	"testing"

	"impala/internal/dfa"
	"impala/internal/obs"
	"impala/internal/shard"
	"impala/internal/sim"
)

// Run is the lockstep core whatever the host offers: Options.Workers bounds
// construction only, so with four usable cores and Workers = 4 the reports
// and the statistics are exactly the unsharded engine's, untiered and tiered.
func TestShardedFanoutRun(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	n := multiCC(t)
	c, err := sim.Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("impala shard sharda head merge goal goooal merge impala")
	want, wantStats := c.Run(input)

	for _, o := range []shard.Options{
		{Shards: 3, Workers: 4},
		{Shards: 3, Workers: 4, Tier: &dfa.TierOptions{MinStateShare: -1}},
	} {
		s, err := shard.Build(n, o)
		if err != nil {
			t.Fatal(err)
		}
		got, st := s.Run(input)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("tier=%v: reports diverge from the unsharded engine\nwant=%v\n got=%v", o.Tier != nil, want, got)
		}
		if st != wantStats {
			t.Fatalf("tier=%v: stats %+v, unsharded engine %+v", o.Tier != nil, st, wantStats)
		}
	}
}

// Accessor invariants across untiered and tiered builds: the original
// automaton is retained, planning CPU is accounted, and the DFA/NFA state
// split covers the tier residue exactly.
func TestShardedAccessors(t *testing.T) {
	n := multiCC(t)

	sealed, cpu, err := shard.Partition(n, shard.Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if cpu <= 0 {
		t.Fatalf("Partition CPU = %v, want > 0", cpu)
	}
	plain, err := shard.Unseal(n, sealed)
	if err != nil {
		t.Fatal(err)
	}
	if plain.NFA() != n {
		t.Fatal("NFA() lost the original automaton")
	}
	if plain.Shards() != 3 {
		t.Fatalf("Shards() = %d, want 3", plain.Shards())
	}
	if plain.TieredShards() != 0 || plain.DFAStates() != 0 {
		t.Fatalf("untiered build reports tiers: %d shards, %d DFA states",
			plain.TieredShards(), plain.DFAStates())
	}
	if got := plain.NFATierStates(); got != n.NumStates() {
		t.Fatalf("untiered NFATierStates() = %d, want all %d", got, n.NumStates())
	}

	tiered, err := shard.Build(n, shard.Options{Shards: 3, Tier: &dfa.TierOptions{MinStateShare: -1}})
	if err != nil {
		t.Fatal(err)
	}
	if tiered.TieredShards() == 0 || tiered.DFAStates() == 0 {
		t.Fatalf("unbudgeted tiered build bought no DFA coverage: %d shards, %d states",
			tiered.TieredShards(), tiered.DFAStates())
	}
	if got := tiered.NFATierStates(); got >= n.NumStates() {
		t.Fatalf("tiered NFATierStates() = %d, want < %d", got, n.NumStates())
	}
}

// NewCore exposes the sharded form as a sim.Core with the automaton's
// geometry, and EnableMetrics counts builds, scans, bytes and reports — a
// run's own reports, also where AppendRun appends them to a buffer's rows.
func TestShardedCoreAndMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	shard.EnableMetrics(reg)
	defer shard.EnableMetrics(nil)

	n := multiCC(t)
	s, err := shard.Build(n, shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	core := s.NewCore()
	if bits, stride := core.Geometry(); bits != n.Bits || stride != n.Stride {
		t.Fatalf("core geometry %d/%d, automaton %d/%d", bits, stride, n.Bits, n.Stride)
	}
	core.ResetState()

	input := []byte("impala merge goal")
	reports, _ := s.Run(input)

	snap := reg.Snapshot()
	if got := snap.Counters["shard_builds_total"]; got != 1 {
		t.Fatalf("shard_builds_total = %d, want 1", got)
	}
	if got := snap.Counters["shard_scans_total"]; got != 1 {
		t.Fatalf("shard_scans_total = %d, want 1", got)
	}
	if got := snap.Counters["shard_reports_total"]; got != int64(len(reports)) {
		t.Fatalf("shard_reports_total = %d, want %d", got, len(reports))
	}
	if out, _ := s.AppendRun(make([]sim.Report, 5), input); len(out) != 5+len(reports) {
		t.Fatalf("AppendRun behind 5 rows returns %d, want %d", len(out), 5+len(reports))
	}
	if got := reg.Snapshot().Counters["shard_reports_total"]; got != 2*int64(len(reports)) {
		t.Fatalf("shard_reports_total = %d after two runs of %d reports, want %d", got, len(reports), 2*len(reports))
	}
	// Bytes are counted once per live shard: the total engine work.
	if got, min := snap.Counters["shard_bytes_total"], int64(len(input)); got < min {
		t.Fatalf("shard_bytes_total = %d, want >= %d", got, min)
	}
}
