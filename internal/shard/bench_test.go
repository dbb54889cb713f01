package shard_test

import (
	"fmt"
	"testing"

	"impala/internal/core"
	"impala/internal/dfa"
	"impala/internal/shard"
	"impala/internal/workload"
)

// BenchmarkShardedRun is the loop the sharded form is tuned against: Snort at
// scale 0.01 compiled to 4-bit stride 4, 16 KiB bodies, stepped in lockstep
// by Run. tiered/K=4 is the benchmark's snort_shard_cluster machine (every
// shard tier-planned under the default budgets: one walker over K DFAs);
// untiered is the same partition on the one kernel over every shard's states,
// which must not slow as K grows.
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
	input := workload.Input(n8, 16<<10, 3)
	for _, form := range []struct {
		name string
		tier *dfa.TierOptions
	}{{"tiered", &dfa.TierOptions{}}, {"untiered", nil}} {
		for _, k := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/K=%d", form.name, k), func(b *testing.B) {
				s, err := shard.Build(res.NFA, shard.Options{Shards: k, Tier: form.tier})
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(input)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Run(input)
				}
			})
		}
	}
}
