package shard_test

import (
	"testing"

	"impala/internal/core"
	"impala/internal/dfa"
	"impala/internal/shard"
	"impala/internal/workload"
)

// BenchmarkShardedRun is the loop the sharded form is tuned against — the
// benchmark's snort_shard_cluster machine: Snort at scale 0.01 compiled to
// 4-bit stride 4, four shards tier-planned under the default budgets, 16 KiB
// bodies, stepped in lockstep by Run.
func BenchmarkShardedRun(b *testing.B) {
	snort, _ := workload.Get("Snort")
	n8, err := snort.Generate(0.01, 1)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Compile(n8, core.Config{TargetBits: 4, StrideDims: 4})
	if err != nil {
		b.Fatal(err)
	}
	s, err := shard.Build(res.NFA, shard.Options{Shards: 4, Tier: &dfa.TierOptions{}})
	if err != nil {
		b.Fatal(err)
	}
	input := workload.Input(n8, 16<<10, 3)
	b.SetBytes(int64(len(input)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(input)
	}
}
