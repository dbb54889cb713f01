package shard_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"impala/internal/automata"
	"impala/internal/core"
	"impala/internal/dfa"
	"impala/internal/regexc"
	"impala/internal/shard"
	"impala/internal/sim"
	"impala/internal/sim/simtest"
	"impala/internal/workload"
)

// Plan determinism pin: the partition is byte-identical for any worker
// count, every component lands in range, and the FFD bins are balanced —
// no shard exceeds the ideal per-shard weight by more than the heaviest
// single component (the classic first-fit-decreasing bound).
func TestPlanDeterministicAndBalanced(t *testing.T) {
	b, _ := workload.Get("ExactMatch")
	n, err := b.Generate(0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := shard.Build(n, shard.Options{Shards: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		s, err := shard.Build(n, shard.Options{Shards: 4, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref.Plan(), s.Plan()) {
			t.Fatalf("workers=%d: plan differs from serial planning", w)
		}
	}
	p := ref.Plan()
	ccs := n.ConnectedComponents()
	if len(p.CCShard) != len(ccs) {
		t.Fatalf("plan covers %d components, automaton has %d", len(p.CCShard), len(ccs))
	}
	total := 0
	for i, sh := range p.CCShard {
		if sh < 0 || sh >= p.Shards {
			t.Fatalf("component %d assigned out of range: %d", i, sh)
		}
		if p.CCStates[i] != len(ccs[i]) {
			t.Fatalf("component %d recorded %d states, has %d", i, p.CCStates[i], len(ccs[i]))
		}
		total += p.CCStates[i]
	}
	if total != n.NumStates() {
		t.Fatalf("plan covers %d states, automaton has %d", total, n.NumStates())
	}
	// Balance: max load <= ideal + heaviest component (state-count proxy).
	heaviest := 0
	for _, cc := range ccs {
		if len(cc) > heaviest {
			heaviest = len(cc)
		}
	}
	ideal := (n.NumStates() + p.Shards - 1) / p.Shards
	if max := p.MaxStates(); max > ideal+heaviest {
		t.Fatalf("unbalanced plan: max shard %d states, ideal %d, heaviest CC %d", max, ideal, heaviest)
	}
}

// multiCC compiles a rule set with several connected components.
func multiCC(t *testing.T) *automata.NFA {
	t.Helper()
	return regexc.MustCompile([]regexc.Rule{
		{Pattern: "impala", Code: 1},
		{Pattern: "sh[ao]rd", Code: 2},
		{Pattern: "^head", Code: 3},
		{Pattern: "go+al", Code: 4},
		{Pattern: "merge", Code: 5},
	})
}

// Steady-state Feed through the flattened lockstep core, and a pooled Run of
// an input that reports nothing, allocate nothing.
func TestShardedAllocFree(t *testing.T) {
	s, err := shard.Build(multiCC(t), shard.Options{Shards: 3, Tier: &dfa.TierOptions{MinStateShare: -1}})
	if err != nil {
		t.Fatal(err)
	}
	simtest.AllocFree(t, simtest.SessionForm(s.NewSession, s.Run), []byte("headimpala shard goal merge impala head"), bytes.Repeat([]byte("no match here. "), 300))
}

// Edge cases: a single-component automaton sharded far wider than its
// component count occupies one shard whole (TestSpine runs such forms), the
// empty automaton executes and reports nothing, and invalid shard counts are
// rejected.
func TestShardedEdgeCases(t *testing.T) {
	if _, err := shard.Build(multiCC(t), shard.Options{Shards: 0}); err == nil {
		t.Fatal("shards=0 accepted")
	}

	// Single CC, 8 shards: 7 shards are empty.
	single := regexc.MustCompile([]regexc.Rule{{Pattern: "solo+", Code: 9}})
	s, err := shard.Build(single, shard.Options{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	if max, min := s.Plan().MaxStates(), s.Plan().MinStates(); max != min || max != single.NumStates() {
		t.Fatalf("single CC should occupy one shard whole: max=%d min=%d", max, min)
	}

	// Empty automaton: no components, no reports, no crash.
	empty := automata.New(8, 1)
	es, err := shard.Build(empty, shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := es.Run([]byte("anything")); len(r) != 0 {
		t.Fatalf("empty automaton reported: %v", r)
	}
	if len(es.Plan().CCShard) != 0 {
		t.Fatalf("empty automaton planned components: %+v", es.Plan())
	}
}

// Seal/Unseal round-trips the partition, and tampered seals are rejected.
// (That the unsealed form runs as the sealed one is TestSpine's, through the
// artifact.)
func TestShardSealUnsealRoundTrip(t *testing.T) {
	n := multiCC(t)
	s, err := shard.Build(n, shard.Options{Shards: 3, Tier: &dfa.TierOptions{MinStateShare: -1}})
	if err != nil {
		t.Fatal(err)
	}
	sealed := s.Seal()
	restored, err := shard.Unseal(n, sealed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Plan(), restored.Plan()) {
		t.Fatalf("plan changed across seal/unseal:\n%+v\n%+v", s.Plan(), restored.Plan())
	}

	corrupt := func(name string, mutate func(*shard.Sealed)) {
		bad := *sealed
		bad.Plan.CCShard = append([]int(nil), sealed.Plan.CCShard...)
		bad.Plan.CCStates = append([]int(nil), sealed.Plan.CCStates...)
		bad.Tiers = append([]*dfa.Sealed(nil), sealed.Tiers...)
		mutate(&bad)
		if _, err := shard.Unseal(n, &bad); err == nil {
			t.Fatalf("%s: corrupted seal accepted", name)
		}
	}
	corrupt("out-of-range assignment", func(b *shard.Sealed) { b.Plan.CCShard[0] = b.Plan.Shards })
	corrupt("negative assignment", func(b *shard.Sealed) { b.Plan.CCShard[0] = -1 })
	corrupt("component-count lie", func(b *shard.Sealed) { b.Plan.CCShard = b.Plan.CCShard[:len(b.Plan.CCShard)-1] })
	corrupt("state-count lie", func(b *shard.Sealed) { b.Plan.CCStates[0]++ })
	corrupt("shard-count lie", func(b *shard.Sealed) { b.Plan.Shards = 0 })
	corrupt("tier-length lie", func(b *shard.Sealed) { b.Tiers = b.Tiers[:1] })
}

// Per-shard tier budgets are the single-core speedup story: a budget too
// small for the whole automaton's union DFA still fits shard by shard, so
// the sharded form covers more states on the fast path than the unsharded
// tier plan — while reports stay identical.
func TestPerShardTierBudget(t *testing.T) {
	b, _ := workload.Get("ExactMatch")
	n8, err := b.Generate(0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Compile(n8, core.Config{TargetBits: 4, StrideDims: 4})
	if err != nil {
		t.Fatal(err)
	}
	n := res.NFA

	// Find a union budget the whole automaton cannot use but shards can:
	// cap it at roughly a quarter of the all-in union DFA.
	full, err := dfa.BuildTiered(n, dfa.TierOptions{MinStateShare: -1})
	if err != nil {
		t.Fatal(err)
	}
	if full.Plan().DFAStates == 0 {
		t.Skip("benchmark has no DFA-able components at this scale")
	}
	budget := full.Plan().DFAStates / 4
	if budget < 2 {
		t.Skip("union DFA too small to subdivide")
	}
	topt := dfa.TierOptions{MaxStates: budget, MinStateShare: -1}

	capped, err := dfa.BuildTiered(n, topt)
	if err != nil {
		t.Fatal(err)
	}
	s, err := shard.Build(n, shard.Options{Shards: 8, Tier: &topt})
	if err != nil {
		t.Fatal(err)
	}
	if s.DFAStates() <= capped.Plan().DFAStates {
		t.Fatalf("per-shard budgets should widen fast-path coverage: sharded %d DFA states vs unsharded %d",
			s.DFAStates(), capped.Plan().DFAStates)
	}

	input := workload.Input(n8, 16*1024, 4)
	want, _ := capped.Run(input)
	got, _ := s.Run(input)
	if !sim.SameReports(want, got) {
		t.Fatalf("budgeted sharded run diverges: %d vs %d reports", len(got), len(want))
	}
}

// UnsealShards with a keep subset is the worker side of cluster dispatch
// (TestSpine merges single-shard workers into the full run): an empty keep
// slice is a legal idle worker, with no engines and no reports, and kept
// indices out of range are rejected.
func TestUnsealShardsKeepSubset(t *testing.T) {
	n := multiCC(t)
	s, err := shard.Build(n, shard.Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	sealed := s.Seal()
	input := []byte("impala shard head goal merge impala shord goooal")
	idle, err := shard.UnsealShards(n, sealed, []int{})
	if err != nil {
		t.Fatal(err)
	}
	if reports, _ := idle.Run(input); len(reports) != 0 {
		t.Fatalf("idle worker reported %d matches", len(reports))
	}

	for _, bad := range [][]int{{-1}, {3}, {0, 99}} {
		if _, err := shard.UnsealShards(n, sealed, bad); err == nil {
			t.Fatalf("keep=%v accepted", bad)
		}
	}
}

func ExampleBuild() {
	n := regexc.MustCompile([]regexc.Rule{
		{Pattern: "alpha", Code: 0},
		{Pattern: "beta", Code: 1},
		{Pattern: "gamma", Code: 2},
	})
	s, _ := shard.Build(n, shard.Options{Shards: 2})
	reports, _ := s.Run([]byte("alpha then beta then gamma"))
	fmt.Println(s.Shards(), "shards,", len(reports), "reports")
	// Output: 2 shards, 3 reports
}
