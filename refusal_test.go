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
type planEdit func(t testing.TB, a *artifact.Artifact)

// tierPlan is the artifact's tier plan, or the first shard's that has two
// components.
func tierPlan(t testing.TB, a *artifact.Artifact) *dfa.Sealed {
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

// brokenPlan is one row of TestLoadRefusesBrokenPlans: the bytes of an
// artifact whose plans an edit broke, and what a machine built from them says.
type brokenPlan struct {
	name   string
	sealed []byte
	// want is LoadMachine's error; workers, on a topology, each domain's
	// MachineFromArtifactDomain error ("" where it accepts).
	want    string
	workers []string
}

// brokenPlans edits the plans of a binary and a scored machine, tiered and in
// three tiered shards on two domains, and returns every edit that survives
// artifact.Load with the text a machine refuses it with.
func brokenPlans(t testing.TB) []brokenPlan {
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

	sizesInTier := func(t testing.TB, a *artifact.Artifact) {
		ccs := tierPlan(t, a).Plan.CCs
		for j := 1; j < len(ccs); j++ {
			if ccs[j].States != ccs[0].States {
				ccs[0].States, ccs[j].States = ccs[j].States, ccs[0].States
				return
			}
		}
		t.Fatal("every tier-plan component has one size")
	}
	tablesWithoutDFA := func(t testing.TB, a *artifact.Artifact) {
		st := tierPlan(t, a)
		if st.DFA == nil {
			t.Fatal("tier plan has no DFA")
		}
		for i := range st.Plan.CCs {
			st.Plan.CCs[i].Kind = dfa.TierNFA
		}
	}
	sizesInShards := func(t testing.TB, a *artifact.Artifact) {
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
	acrossShards := func(t testing.TB, a *artifact.Artifact) {
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

	tablesMissing := func(t testing.TB, a *artifact.Artifact) {
		st := tierPlan(t, a)
		if st.DFA == nil {
			t.Fatal("tier plan has no DFA")
		}
		st.DFA = nil
	}
	// count edits one of a tier plan's derived counts by delta.
	count := func(field func(p *dfa.Plan) *int, delta int) planEdit {
		return func(t testing.TB, a *artifact.Artifact) { *field(&tierPlan(t, a).Plan) += delta }
	}
	dfaStates := count(func(p *dfa.Plan) *int { return &p.DFAStates }, 7)
	tableBytes := count(func(p *dfa.Plan) *int { return &p.DFATableBytes }, 1)
	nfaStates := count(func(p *dfa.Plan) *int { return &p.NFAStates }, 1)
	dfaNFAStates := count(func(p *dfa.Plan) *int { return &p.DFANFAStates }, 1)
	shardOutOfRange := func(t testing.TB, a *artifact.Artifact) { a.Shards.Plan.CCShard[0] = 99 }
	shardStatesLie := func(t testing.TB, a *artifact.Artifact) { a.Shards.Plan.CCStates[0] = 1 << 20 }
	// shardCountLie claims two more shards than there are tier entries,
	// placed on the topology so the container stays whole.
	shardCountLie := func(t testing.TB, a *artifact.Artifact) {
		a.Shards.Plan.Shards += 2
		a.Topo.ShardDomain = append(a.Topo.ShardDomain, 0, 1)
	}

	const (
		tierPlanErr  = "impala: artifact tier plan does not unseal: "
		shardPlanErr = "impala: artifact shard plan does not unseal: shard: "
	)
	var out []brokenPlan
	for _, tc := range []struct {
		name    string
		edit    planEdit
		machine string
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
		{"DFA components without their tables", tablesMissing, "binary, tiered",
			tierPlanErr + "dfa: sealed DFA tables inconsistent with plan", nil},
		{"DFA components without their tables", tablesMissing, "scored, tiered",
			tierPlanErr + "dfa: sealed DFA tables inconsistent with plan", nil},
		{"DFA components without their tables", tablesMissing, "binary, 3 shards, tiered",
			shardPlanErr + "shard 0 tier does not unseal: dfa: sealed DFA tables inconsistent with plan", []string{
				shardPlanErr + "shard 0 tier does not unseal: dfa: sealed DFA tables inconsistent with plan", ""}},
		{"DFA components without their tables", tablesMissing, "scored, 3 shards, tiered",
			shardPlanErr + "shard 0 tier does not unseal: dfa: sealed DFA tables inconsistent with plan", []string{
				shardPlanErr + "shard 0 tier does not unseal: dfa: sealed DFA tables inconsistent with plan", ""}},
		{"a component assigned to no shard", shardOutOfRange, "binary, 3 shards, tiered",
			shardPlanErr + "sealed component 0 assigned to shard 99 of 3", []string{
				shardPlanErr + "sealed component 0 assigned to shard 99 of 3",
				shardPlanErr + "sealed component 0 assigned to shard 99 of 3"}},
		{"a component assigned to no shard", shardOutOfRange, "scored, 3 shards, tiered",
			shardPlanErr + "sealed component 0 assigned to shard 99 of 3", []string{
				shardPlanErr + "sealed component 0 assigned to shard 99 of 3",
				shardPlanErr + "sealed component 0 assigned to shard 99 of 3"}},
		{"a component's state count lied in the shard plan", shardStatesLie, "binary, 3 shards, tiered",
			shardPlanErr + "sealed component 0 has 1048576 states, automaton has 3", []string{
				shardPlanErr + "sealed component 0 has 1048576 states, automaton has 3",
				shardPlanErr + "sealed component 0 has 1048576 states, automaton has 3"}},
		{"a component's state count lied in the shard plan", shardStatesLie, "scored, 3 shards, tiered",
			shardPlanErr + "sealed component 0 has 1048576 states, automaton has 3", []string{
				shardPlanErr + "sealed component 0 has 1048576 states, automaton has 3",
				shardPlanErr + "sealed component 0 has 1048576 states, automaton has 3"}},
		{"two shards more than tier entries", shardCountLie, "binary, 3 shards, tiered",
			shardPlanErr + "sealed plan has 5 shards but 3 tier entries", []string{
				shardPlanErr + "sealed plan has 5 shards but 3 tier entries",
				shardPlanErr + "sealed plan has 5 shards but 3 tier entries"}},
		{"two shards more than tier entries", shardCountLie, "scored, 3 shards, tiered",
			shardPlanErr + "sealed plan has 5 shards but 3 tier entries", []string{
				shardPlanErr + "sealed plan has 5 shards but 3 tier entries",
				shardPlanErr + "sealed plan has 5 shards but 3 tier entries"}},
		{"DFA states +7 in a tier plan", dfaStates, "binary, tiered",
			tierPlanErr + "dfa: sealed plan claims 286 DFA states, the tier has 279", nil},
		{"DFA states +7 in a tier plan", dfaStates, "scored, tiered",
			tierPlanErr + "dfa: sealed plan claims 300 DFA states, the tier has 293", nil},
		{"DFA states +7 in a tier plan", dfaStates, "binary, 3 shards, tiered",
			shardPlanErr + "shard 0 tier does not unseal: dfa: sealed plan claims 95 DFA states, the tier has 88", []string{
				shardPlanErr + "shard 0 tier does not unseal: dfa: sealed plan claims 95 DFA states, the tier has 88", ""}},
		{"DFA states +7 in a tier plan", dfaStates, "scored, 3 shards, tiered",
			shardPlanErr + "shard 0 tier does not unseal: dfa: sealed plan claims 85 DFA states, the tier has 78", []string{
				shardPlanErr + "shard 0 tier does not unseal: dfa: sealed plan claims 85 DFA states, the tier has 78", ""}},
		{"DFA table bytes +1 in a tier plan", tableBytes, "binary, tiered",
			tierPlanErr + "dfa: sealed plan claims 8929 DFA table bytes, the tier has 8928", nil},
		{"DFA table bytes +1 in a tier plan", tableBytes, "scored, tiered",
			tierPlanErr + "dfa: sealed plan claims 9377 DFA table bytes, the tier has 9376", nil},
		{"DFA table bytes +1 in a tier plan", tableBytes, "binary, 3 shards, tiered",
			shardPlanErr + "shard 0 tier does not unseal: dfa: sealed plan claims 2817 DFA table bytes, the tier has 2816", []string{
				shardPlanErr + "shard 0 tier does not unseal: dfa: sealed plan claims 2817 DFA table bytes, the tier has 2816", ""}},
		{"DFA table bytes +1 in a tier plan", tableBytes, "scored, 3 shards, tiered",
			shardPlanErr + "shard 0 tier does not unseal: dfa: sealed plan claims 2497 DFA table bytes, the tier has 2496", []string{
				shardPlanErr + "shard 0 tier does not unseal: dfa: sealed plan claims 2497 DFA table bytes, the tier has 2496", ""}},
		{"NFA-tier states +1 in a tier plan", nfaStates, "binary, tiered",
			tierPlanErr + "dfa: sealed plan claims 1 states on the NFA tier, the tier has 0", nil},
		{"NFA-tier states +1 in a tier plan", nfaStates, "scored, tiered",
			tierPlanErr + "dfa: sealed plan claims 1 states on the NFA tier, the tier has 0", nil},
		{"NFA-tier states +1 in a tier plan", nfaStates, "binary, 3 shards, tiered",
			shardPlanErr + "shard 0 tier does not unseal: dfa: sealed plan claims 1 states on the NFA tier, the tier has 0", []string{
				shardPlanErr + "shard 0 tier does not unseal: dfa: sealed plan claims 1 states on the NFA tier, the tier has 0", ""}},
		{"NFA-tier states +1 in a tier plan", nfaStates, "scored, 3 shards, tiered",
			shardPlanErr + "shard 0 tier does not unseal: dfa: sealed plan claims 1 states on the NFA tier, the tier has 0", []string{
				shardPlanErr + "shard 0 tier does not unseal: dfa: sealed plan claims 1 states on the NFA tier, the tier has 0", ""}},
		{"DFA-tier states +1 in a tier plan", dfaNFAStates, "binary, tiered",
			tierPlanErr + "dfa: sealed plan claims 55 states on the DFA tier, the tier has 54", nil},
		{"DFA-tier states +1 in a tier plan", dfaNFAStates, "scored, tiered",
			tierPlanErr + "dfa: sealed plan claims 57 states on the DFA tier, the tier has 56", nil},
		{"DFA-tier states +1 in a tier plan", dfaNFAStates, "binary, 3 shards, tiered",
			shardPlanErr + "shard 0 tier does not unseal: dfa: sealed plan claims 20 states on the DFA tier, the tier has 19", []string{
				shardPlanErr + "shard 0 tier does not unseal: dfa: sealed plan claims 20 states on the DFA tier, the tier has 19", ""}},
		{"DFA-tier states +1 in a tier plan", dfaNFAStates, "scored, 3 shards, tiered",
			shardPlanErr + "shard 0 tier does not unseal: dfa: sealed plan claims 19 states on the DFA tier, the tier has 18", []string{
				shardPlanErr + "shard 0 tier does not unseal: dfa: sealed plan claims 19 states on the DFA tier, the tier has 18", ""}},
	} {
		name := tc.name + ", " + tc.machine
		a, err := artifact.Load(bytes.NewReader(sealed[tc.machine]))
		if err != nil {
			t.Fatal(err)
		}
		tc.edit(t, a)
		broken := save(t, a)
		if _, err := artifact.Load(bytes.NewReader(broken)); err != nil {
			t.Fatalf("%s: artifact.Load refuses it: %v", name, err)
		}
		out = append(out, brokenPlan{name, broken, tc.want, tc.workers})
	}
	return out
}

// TestLoadRefusesBrokenPlans pins what a machine checks of its sealed plans
// whatever form it serves: each edit brokenPlans makes survives
// artifact.Load, and LoadMachine — and MachineFromArtifactDomain for every
// domain whose shards the edit reaches — refuses it with the one text, on the
// binary machine that steps the plans and on the scored one that only checks
// them. A worker checks the tier plans of the shards it hosts only.
func TestLoadRefusesBrokenPlans(t *testing.T) {
	for _, b := range brokenPlans(t) {
		_, err := impala.LoadMachine(bytes.NewReader(b.sealed))
		if got := errText(err); got != b.want {
			t.Errorf("%s: LoadMachine error %q, want %q", b.name, got, b.want)
		}
		a, err := artifact.Load(bytes.NewReader(b.sealed))
		if err != nil {
			t.Fatal(err)
		}
		if a.Topo == nil {
			continue
		}
		for i, domain := range a.Topo.Topology.Names() {
			_, err := impala.MachineFromArtifactDomain(a, domain)
			if got := errText(err); got != b.workers[i] {
				t.Errorf("%s: domain %s's MachineFromArtifactDomain error %q, want %q", b.name, domain, got, b.workers[i])
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
