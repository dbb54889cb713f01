package dfa_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"impala/internal/automata"
	"impala/internal/core"
	"impala/internal/dfa"
	"impala/internal/obs"
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
	if tiered.DFA() == nil || tiered.Plan().NFAStates == 0 {
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
// input that reports nothing, allocate nothing, with the stream and tier
// metrics off and live: the DFA alone and, with a component that blows the
// budget, the walker stepping the kernel beside it, each over sub-symbols and
// over bytes (rules over the letters a to d at 4-bit × 4, whose DFA steps
// bytes and hands the kernel its sub-symbols unpacked). The fed input is long
// enough for the walker to cut it into segments.
func TestTieredAllocFree(t *testing.T) {
	rules := []regexc.Rule{{Pattern: "stream", Code: 1}, {Pattern: "^sof", Code: 2}}
	abcd := []regexc.Rule{{Pattern: "ab+c", Code: 1}, {Pattern: "^dab", Code: 2}}
	blows := regexc.Rule{Pattern: "a.{12}b", Code: 3}
	byBytes := func(rules []regexc.Rule) *automata.NFA {
		res, err := core.Compile(regexc.MustCompile(rules), core.Config{TargetBits: 4, StrideDims: 4})
		if err != nil {
			t.Fatal(err)
		}
		return res.NFA
	}
	for _, tc := range []struct {
		n           *automata.NFA
		feed, quiet string
	}{
		{regexc.MustCompile(rules), "sofstream stream sof stream ", "no match here. "},
		{regexc.MustCompile(append(rules, blows)), "sofstream stream sof stream ", "no match here. "},
		{byBytes(abcd), "dababbc abc dab abbbbc ", "no match here. "},
		{byBytes(append(abcd, blows)), "dababbc abc dab abbbbc ", "no match here. "},
	} {
		tiered, err := dfa.BuildTiered(tc.n, dfa.TierOptions{CCMaxStates: 1024, MinStateShare: -1})
		if err != nil {
			t.Fatal(err)
		}
		if tiered.DFA() == nil {
			t.Fatal("no DFA tier")
		}
		if bits, _ := tiered.Lane().New().Geometry(); bits != 8 {
			t.Fatalf("%d-bit automaton: the walker takes %d-bit symbols, its DFA steps %d sub-symbols a lookup", tc.n.Bits, bits, tiered.DFA().Step())
		}
		name := fmt.Sprintf("%d NFA-tier states", tiered.Plan().NFAStates)
		if tiered.DFA().Step() > 1 {
			name = "bytes, " + name
		}
		t.Run(name, func(t *testing.T) {
			simtest.AllocFree(t, simtest.SessionForm(tiered.NewSession, tiered.AppendRun), bytes.Repeat([]byte(tc.feed), 40), bytes.Repeat([]byte(tc.quiet), 300), dfa.EnableMetrics)
		})
	}
}

// tier_reports_total counts the reports of each run, not the rows of the
// buffer an AppendRun appended them to.
func TestTieredMetricsCountThisRun(t *testing.T) {
	reg := obs.NewRegistry()
	dfa.EnableMetrics(reg)
	defer dfa.EnableMetrics(nil)
	n := regexc.MustCompile([]regexc.Rule{{Pattern: "stream", Code: 1}, {Pattern: "^sof", Code: 2}})
	tiered, err := dfa.BuildTiered(n, dfa.TierOptions{MinStateShare: -1})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := tiered.AppendRun(make([]sim.Report, 5), []byte("sofstream stream"))
	if got, want := reg.Snapshot().Counters["tier_reports_total"], int64(len(out)-5); want != 3 || got != want {
		t.Fatalf("tier_reports_total = %d after a run of %d reports, want %d and 3", got, want, want)
	}
}
