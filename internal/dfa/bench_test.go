package dfa_test

import (
	"fmt"
	"testing"

	"impala/internal/automata"
	"impala/internal/core"
	"impala/internal/dfa"
	"impala/internal/shard"
	"impala/internal/sim"
	"impala/internal/workload"
)

// BenchmarkDFAWalk is the loop the DFA walker is tuned against, alone: the
// DFA tiers of Snort at scale 0.01 (4-bit stride 4) cut into K shards under
// the default budgets — K = 4 is the benchmark's snort_shard_cluster machine
// without its (empty) kernel lane — walked as one lane over 16 KiB bodies in
// whole blocks. It reports ns per input byte and the tables' size.
func BenchmarkDFAWalk(b *testing.B) {
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
	for _, k := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			s, _, err := shard.Partition(res.NFA, shard.Options{Shards: k, Tier: &dfa.TierOptions{}})
			if err != nil {
				b.Fatal(err)
			}
			var ds []*dfa.DFA
			var origs [][]automata.StateID
			tableBytes := 0
			for _, tier := range s.Tiers {
				if tier == nil || tier.DFA == nil {
					continue
				}
				ds, origs = append(ds, tier.DFA), append(origs, make([]automata.StateID, tier.Plan.DFANFAStates))
				tableBytes += tier.DFA.TableBytes()
			}
			sess := sim.NewSession(dfa.Lane(ds, origs).New(), nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sess.Reset()
				sess.Feed(input)
				sess.Flush()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(input)), "ns/B")
			b.ReportMetric(float64(tableBytes)/1024, "table-KB")
		})
	}
}
