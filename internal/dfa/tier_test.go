package dfa_test

import (
	"bytes"
	"reflect"
	"testing"

	"impala/internal/dfa"
	"impala/internal/regexc"
	"impala/internal/sim"
	"impala/internal/sim/simtest"
)

// Determinism pin (acceptance criterion): dfa.Build produces byte-identical
// tables for workers {1, 2, 8}.
func TestBuildDeterministicAcrossWorkers(t *testing.T) {
	n := regexc.MustCompile([]regexc.Rule{
		{Pattern: "impala", Code: 1},
		{Pattern: "a[bc]+d", Code: 2},
		{Pattern: `\d\d\d`, Code: 3},
		{Pattern: "^anchor", Code: 4},
	})
	ref, err := dfa.Build(n, dfa.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		d, err := dfa.Build(n, dfa.Options{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref.Raw(), d.Raw()) {
			t.Fatalf("workers=%d: table differs from serial construction", w)
		}
	}
}

// A component whose determinization explodes must land on the NFA tier
// while literal components take the DFA fast path. (That a mixed plan runs as
// the scalar engine does is TestSpine's "tiered, split budget".)
func TestTierPlanMixed(t *testing.T) {
	n := regexc.MustCompile([]regexc.Rule{
		{Pattern: "a.{12}b", Code: 1}, // 2^12 subset states: blows the CC budget
		{Pattern: "literal", Code: 2},
		{Pattern: "keyword", Code: 3},
	})
	tiered, err := dfa.BuildTiered(n, dfa.TierOptions{CCMaxStates: 1024, MinStateShare: -1})
	if err != nil {
		t.Fatal(err)
	}
	plan := tiered.Plan()
	var nfaCCs, dfaCCs int
	for _, cc := range plan.CCs {
		switch cc.Kind {
		case dfa.TierNFA:
			nfaCCs++
		case dfa.TierDFA:
			dfaCCs++
		}
	}
	if nfaCCs == 0 || dfaCCs == 0 {
		t.Fatalf("want a mixed plan, got %d NFA / %d DFA components", nfaCCs, dfaCCs)
	}
	if tiered.DFA() == nil || len(tiered.NFAStateIDs()) == 0 {
		t.Fatal("mixed plan must build both engines")
	}
}

// The share gate drops a DFA tier that covers too little of the automaton.
func TestTierShareGate(t *testing.T) {
	n := regexc.MustCompile([]regexc.Rule{
		{Pattern: "a.{10}b", Code: 1}, // big component, blows up
		{Pattern: "ok", Code: 2},      // tiny DFA-able component
	})
	tiered, err := dfa.BuildTiered(n, dfa.TierOptions{CCMaxStates: 512, MinStateShare: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if tiered.DFA() != nil {
		t.Fatalf("share gate should have dropped the DFA tier: %+v", tiered.Plan())
	}
	for _, cc := range tiered.Plan().CCs {
		if cc.Kind != dfa.TierNFA {
			t.Fatalf("all components must fall back: %+v", cc)
		}
	}
	// The all-NFA tiered form still runs correctly.
	input := []byte("ok aXXXXXXXXXXb ok")
	want, _, err := sim.Run(n, input)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := tiered.Run(input)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("gated run != scalar\nscalar=%v\ntiered=%v", want, got)
	}
}

// Seal/Unseal round-trips the plan, and a tampered plan is rejected. (That the
// unsealed form runs as the sealed one is TestSpine's, through the artifact.)
func TestSealUnsealRoundTrip(t *testing.T) {
	n := regexc.MustCompile([]regexc.Rule{
		{Pattern: "impala", Code: 1},
		{Pattern: "a.{12}b", Code: 2},
		{Pattern: "tier", Code: 3},
	})
	tiered, err := dfa.BuildTiered(n, dfa.TierOptions{CCMaxStates: 1024, MinStateShare: -1})
	if err != nil {
		t.Fatal(err)
	}
	sealed := tiered.Seal()
	restored, err := dfa.Unseal(n, sealed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tiered.Plan(), restored.Plan()) {
		t.Fatalf("plan changed across seal/unseal:\n%+v\n%+v", tiered.Plan(), restored.Plan())
	}

	// Tampered plans must be rejected.
	bad := *sealed
	bad.Plan.CCs = bad.Plan.CCs[:len(bad.Plan.CCs)-1]
	if _, err := dfa.Unseal(n, &bad); err == nil {
		t.Fatal("truncated plan accepted")
	}
}

// Steady-state Feed through the tiered lockstep core, and a pooled Run of an
// input that reports nothing, allocate nothing.
func TestTieredAllocFree(t *testing.T) {
	n := regexc.MustCompile([]regexc.Rule{
		{Pattern: "stream", Code: 1},
		{Pattern: "^sof", Code: 2},
	})
	tiered, err := dfa.BuildTiered(n, dfa.TierOptions{MinStateShare: -1})
	if err != nil {
		t.Fatal(err)
	}
	simtest.AllocFree(t, simtest.SessionForm(tiered.NewSession, tiered.Run), []byte("sofstream stream sof stream"), bytes.Repeat([]byte("no match here. "), 300))
}
