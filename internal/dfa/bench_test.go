package dfa_test

import (
	"fmt"
	"testing"

	"impala/internal/automata"
	"impala/internal/core"
	"impala/internal/dfa"
	"impala/internal/obs"
	"impala/internal/shard"
	"impala/internal/sim"
	"impala/internal/workload"
)

// BenchmarkDFAWalk is the loop the DFA walker is tuned against, alone: the
// DFA tiers of Snort at scale 0.01 (4-bit stride 4) cut into K shards under
// the default budgets — K = 4 is the benchmark's snort_shard_cluster machine
// without its (empty) kernel — walked as one lane over 16 KiB bodies,
// and the benchmark's hamming_tier_match machine — Hamming at scale 0.03 on
// one union DFA, 64 KiB bodies — each in whole blocks. It reports ns per
// input byte, the tables' size and the share of cycles walked again after a
// speculative segment missed at its seam.
func BenchmarkDFAWalk(b *testing.B) {
	walk := func(b *testing.B, ds []*dfa.DFA, origs [][]automata.StateID, input []byte) {
		tableBytes := 0
		for _, d := range ds {
			tableBytes += d.TableBytes()
		}
		sess := sim.NewSession(dfa.Lane(ds, origs).New(), nil)
		run := func() {
			sess.Reset()
			sess.Feed(input)
			sess.Flush()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(input)), "ns/B")
		b.ReportMetric(float64(tableBytes)/1024, "table-KB")
		b.StopTimer()
		reg := obs.NewRegistry()
		dfa.EnableMetrics(reg)
		run()
		dfa.EnableMetrics(nil)
		b.ReportMetric(float64(reg.Snapshot().Counters["dfa_rewalk_cycles_total"])/float64(sess.Cycles()), "rewalk-share")
	}

	snort, res := compileSuite(b, "Snort", 0.01, core.Config{TargetBits: 4, StrideDims: 4})
	input := workload.Input(snort, 16<<10, 3)
	for _, k := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			s, _, err := shard.Partition(res.NFA, shard.Options{Shards: k, Tier: &dfa.TierOptions{}})
			if err != nil {
				b.Fatal(err)
			}
			var ds []*dfa.DFA
			var origs [][]automata.StateID
			for _, tier := range s.Tiers {
				if tier == nil || tier.DFA == nil {
					continue
				}
				ds, origs = append(ds, tier.DFA), append(origs, make([]automata.StateID, tier.Plan.DFANFAStates))
			}
			walk(b, ds, origs, input)
		})
	}
	b.Run("hamming_tier_match", func(b *testing.B) {
		hamming, res := compileSuite(b, "Hamming", 0.03, core.Config{TargetBits: 4, StrideDims: 4, Tier: &dfa.TierOptions{}})
		if res.Tier.DFA == nil || res.Tier.Plan.NFAStates != 0 {
			b.Fatalf("Hamming 0.03 tiers to %d DFA and %d NFA states, want all on one DFA", res.Tier.Plan.DFANFAStates, res.Tier.Plan.NFAStates)
		}
		walk(b, []*dfa.DFA{res.Tier.DFA}, [][]automata.StateID{make([]automata.StateID, res.Tier.Plan.DFANFAStates)}, workload.Input(hamming, 64<<10, 3))
	})
}

// BenchmarkSelect is the tier selection of the benchmark's two DFA-tier
// automata at the design point (4-bit × 4): Hamming at scale 0.03, all on
// one union DFA, and Snort at scale 0.01, whose trials and union
// construction are most of its compile — the subset construction's time
// and its allocations, on GOMAXPROCS workers.
func BenchmarkSelect(b *testing.B) {
	for _, w := range []struct {
		suite string
		scale float64
	}{{"Hamming", 0.03}, {"Snort", 0.01}} {
		_, res := compileSuite(b, w.suite, w.scale, core.Config{TargetBits: 4, StrideDims: 4})
		b.Run(w.suite, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := dfa.Select(res.NFA, dfa.TierOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// compileSuite compiles suite at scale under cfg, returning its 8-bit
// automaton and the compile.
func compileSuite(b *testing.B, suite string, scale float64, cfg core.Config) (*automata.NFA, *core.Result) {
	s, _ := workload.Get(suite)
	n8, err := s.Generate(scale, 1)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Compile(n8, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return n8, res
}
