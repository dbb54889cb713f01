package impala_test

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"impala"
	"impala/internal/artifact"
	"impala/internal/dfa"
	"impala/internal/regexc"
	"impala/internal/shard"
	"impala/internal/sim/simtest"
	"impala/internal/topo"
)

// planEdit breaks the sealed plans of a decoded artifact in a way
// artifact.Load cannot see — every per-section and cross-section check it
// makes still holds — so only the checks that unseal a plan against the
// automaton's components can refuse it.
type planEdit func(t *testing.T, a *artifact.Artifact)

// tierPlan is the artifact's tier plan, or the first shard's that has two
// components.
func tierPlan(t *testing.T, a *artifact.Artifact) *dfa.Sealed {
	if a.Tier != nil {
		return a.Tier
	}
	for _, st := range a.Shards.Tiers {
		if st != nil && len(st.Plan.CCs) > 1 {
			return st
		}
	}
	t.Fatal("no tier plan with two components")
	return nil
}

// TestLoadRefusesBrokenPlans pins what a machine checks of its sealed plans
// whatever form it serves: each edit below survives artifact.Load, and
// LoadMachine — and MachineFromArtifactDomain for every domain whose shards
// the edit reaches — refuses it with the one text, on the binary machine that
// steps the plans and on the scored one that only checks them.
func TestLoadRefusesBrokenPlans(t *testing.T) {
	src := regexc.MustCompile([]regexc.Rule{
		{Pattern: "alpha", Code: 0}, {Pattern: "omicron", Code: 1}, {Pattern: "gamma", Code: 2},
		{Pattern: "epsilon", Code: 3}, {Pattern: "delta", Code: 4}, {Pattern: "upsilon", Code: 5},
		{Pattern: "kappa", Code: 6}, {Pattern: "b[ae]ta+", Code: 7},
	})
	sealed := map[string][]byte{}
	for _, name := range []string{"binary, tiered", "binary, 3 shards, tiered", "scored, tiered", "scored, 3 shards, tiered"} {
		cfg := impala.Config{StrideDims: 4, Tier: true}
		if strings.Contains(name, "3 shards") {
			cfg.Shards = 3
		}
		if strings.HasPrefix(name, "scored") {
			cfg.Score = simtest.RandomWeights(src, 1)
		}
		m, err := impala.CompileAutomaton(src, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		a := m.Artifact()
		if cfg.Shards > 0 {
			a.SetTopo(&topo.Sealed{Topology: topo.Topology{Domains: []topo.Domain{{Name: "n0"}, {Name: "n1"}}}, ShardDomain: []int{0, 1, 0}})
		}
		sealed[name] = save(t, a)
	}

	sizesInTier := func(t *testing.T, a *artifact.Artifact) {
		ccs := tierPlan(t, a).Plan.CCs
		for j := 1; j < len(ccs); j++ {
			if ccs[j].States != ccs[0].States {
				ccs[0].States, ccs[j].States = ccs[j].States, ccs[0].States
				return
			}
		}
		t.Fatal("every tier-plan component has one size")
	}
	tablesWithoutDFA := func(t *testing.T, a *artifact.Artifact) {
		st := tierPlan(t, a)
		if st.DFA == nil {
			t.Fatal("tier plan has no DFA")
		}
		for i := range st.Plan.CCs {
			st.Plan.CCs[i].Kind = dfa.TierNFA
		}
	}
	sizesInShards := func(t *testing.T, a *artifact.Artifact) {
		p := a.Shards.Plan
		for i := range p.CCShard {
			for j := i + 1; j < len(p.CCShard); j++ {
				if p.CCShard[i] == p.CCShard[j] && p.CCStates[i] != p.CCStates[j] {
					p.CCStates[i], p.CCStates[j] = p.CCStates[j], p.CCStates[i]
					return
				}
			}
		}
		t.Fatal("no shard holds two components of different sizes")
	}
	// acrossShards moves two components of one size between shards, which
	// keeps every shard's component count and state total; of the pairs, it
	// takes the first that leaves some shard's components out of its tier
	// plan's order.
	acrossShards := func(t *testing.T, a *artifact.Artifact) {
		p := a.Shards.Plan
		for i := range p.CCShard {
			for j := i + 1; j < len(p.CCShard); j++ {
				if p.CCShard[i] == p.CCShard[j] || p.CCStates[i] != p.CCStates[j] {
					continue
				}
				moved := *a.Shards
				moved.Plan.CCShard = slices.Clone(p.CCShard)
				moved.Plan.CCShard[i], moved.Plan.CCShard[j] = p.CCShard[j], p.CCShard[i]
				if _, err := shard.Unseal(a.NFA, &moved); err != nil {
					a.Shards = &moved
					return
				}
			}
		}
		t.Fatal("no move of two components across shards breaks a tier plan")
	}

	const (
		tierPlanErr  = "impala: artifact tier plan does not unseal: "
		shardPlanErr = "impala: artifact shard plan does not unseal: shard: "
	)
	for _, tc := range []struct {
		name    string
		edit    planEdit
		machine string
		// want is LoadMachine's error; workers, on a topology, each domain's
		// MachineFromArtifactDomain error ("" where it accepts).
		want    string
		workers []string
	}{
		{"component sizes swapped inside a tier plan", sizesInTier, "binary, tiered",
			tierPlanErr + "dfa: sealed component 0 has 4 states, automaton has 3", nil},
		{"component sizes swapped inside a tier plan", sizesInTier, "scored, tiered",
			tierPlanErr + "dfa: sealed component 0 has 4 states, automaton has 3", nil},
		{"component sizes swapped inside a tier plan", sizesInTier, "binary, 3 shards, tiered",
			shardPlanErr + "shard 0 tier does not unseal: dfa: sealed component 0 has 4 states, automaton has 3", []string{
				shardPlanErr + "shard 0 tier does not unseal: dfa: sealed component 0 has 4 states, automaton has 3", ""}},
		{"component sizes swapped inside a tier plan", sizesInTier, "scored, 3 shards, tiered",
			shardPlanErr + "shard 0 tier does not unseal: dfa: sealed component 0 has 4 states, automaton has 3", []string{
				shardPlanErr + "shard 0 tier does not unseal: dfa: sealed component 0 has 4 states, automaton has 3", ""}},
		{"DFA tables beside no DFA component", tablesWithoutDFA, "binary, tiered",
			tierPlanErr + "dfa: sealed DFA tables inconsistent with plan", nil},
		{"DFA tables beside no DFA component", tablesWithoutDFA, "scored, tiered",
			tierPlanErr + "dfa: sealed DFA tables inconsistent with plan", nil},
		{"DFA tables beside no DFA component", tablesWithoutDFA, "binary, 3 shards, tiered",
			shardPlanErr + "shard 0 tier does not unseal: dfa: sealed DFA tables inconsistent with plan", []string{
				shardPlanErr + "shard 0 tier does not unseal: dfa: sealed DFA tables inconsistent with plan", ""}},
		{"DFA tables beside no DFA component", tablesWithoutDFA, "scored, 3 shards, tiered",
			shardPlanErr + "shard 0 tier does not unseal: dfa: sealed DFA tables inconsistent with plan", []string{
				shardPlanErr + "shard 0 tier does not unseal: dfa: sealed DFA tables inconsistent with plan", ""}},
		{"component sizes swapped inside the shard plan", sizesInShards, "binary, 3 shards, tiered",
			shardPlanErr + "sealed component 0 has 4 states, automaton has 3", []string{
				shardPlanErr + "sealed component 0 has 4 states, automaton has 3",
				shardPlanErr + "sealed component 0 has 4 states, automaton has 3"}},
		{"component sizes swapped inside the shard plan", sizesInShards, "scored, 3 shards, tiered",
			shardPlanErr + "sealed component 0 has 4 states, automaton has 3", []string{
				shardPlanErr + "sealed component 0 has 4 states, automaton has 3",
				shardPlanErr + "sealed component 0 has 4 states, automaton has 3"}},
		{"two components moved across shards, the sums kept", acrossShards, "binary, 3 shards, tiered",
			shardPlanErr + "shard 1 tier does not unseal: dfa: sealed component 0 has 4 states, automaton has 3", []string{
				shardPlanErr + "shard 2 tier does not unseal: dfa: sealed component 0 has 3 states, automaton has 4",
				shardPlanErr + "shard 1 tier does not unseal: dfa: sealed component 0 has 4 states, automaton has 3"}},
		{"two components moved across shards, the sums kept", acrossShards, "scored, 3 shards, tiered",
			shardPlanErr + "shard 2 tier does not unseal: dfa: sealed component 1 has 3 states, automaton has 4", []string{
				shardPlanErr + "shard 2 tier does not unseal: dfa: sealed component 1 has 3 states, automaton has 4", ""}},
	} {
		name := tc.name + ", " + tc.machine
		a, err := artifact.Load(bytes.NewReader(sealed[tc.machine]))
		if err != nil {
			t.Fatal(err)
		}
		tc.edit(t, a)
		broken := save(t, a)
		la, err := artifact.Load(bytes.NewReader(broken))
		if err != nil {
			t.Fatalf("%s: artifact.Load refuses it: %v", name, err)
		}
		_, err = impala.LoadMachine(bytes.NewReader(broken))
		if got := errText(err); got != tc.want {
			t.Errorf("%s: LoadMachine error %q, want %q", name, got, tc.want)
		}
		if la.Topo == nil {
			continue
		}
		for i, domain := range la.Topo.Topology.Names() {
			_, err := impala.MachineFromArtifactDomain(la, domain)
			if got := errText(err); got != tc.workers[i] {
				t.Errorf("%s: domain %s's MachineFromArtifactDomain error %q, want %q", name, domain, got, tc.workers[i])
			}
		}
	}
}

// errText is err's text, "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return fmt.Sprint(err)
}
