package dfa_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
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

// geometries compiles one rule set through the V-TeSS pipeline at every
// supported (bits, stride) design point.
func geometries(t *testing.T, rules []regexc.Rule) map[string]*automata.NFA {
	t.Helper()
	n := regexc.MustCompile(rules)
	out := map[string]*automata.NFA{"8/1": n}
	for _, cfg := range []core.Config{
		{TargetBits: 8, StrideDims: 2},
		{TargetBits: 4, StrideDims: 1},
		{TargetBits: 4, StrideDims: 2},
		{TargetBits: 4, StrideDims: 4},
		{TargetBits: 2, StrideDims: 4},
	} {
		res, err := core.Compile(n, cfg)
		if err != nil {
			t.Fatalf("compile %d/%d: %v", cfg.TargetBits, cfg.StrideDims, err)
		}
		out[fmt.Sprintf("%d/%d", cfg.TargetBits, cfg.StrideDims)] = res.NFA
	}
	return out
}

// Differential fuzz pin (acceptance criterion): tiered execution ==
// compiled NFA == scalar simulator, byte-identical reports (including
// state attribution) and identical statistics, on every (bits, stride)
// geometry.
func TestTieredDifferentialFuzz(t *testing.T) {
	rules := []regexc.Rule{
		{Pattern: "abc", Code: 1},
		{Pattern: "x[yz]+w", Code: 2},
		{Pattern: "^head", Code: 3},
		{Pattern: "go+al", Code: 4},
	}
	r := rand.New(rand.NewSource(7))
	for name, n := range geometries(t, rules) {
		tiered, err := dfa.BuildTiered(n, dfa.TierOptions{MinStateShare: -1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c, err := sim.Compile(n)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for trial := 0; trial < 8; trial++ {
			input := make([]byte, 1+r.Intn(300))
			for i := range input {
				input[i] = "abcdxyzwheadgol "[r.Intn(16)]
			}
			want, wantStats, err := sim.Run(n, input)
			if err != nil {
				t.Fatal(err)
			}
			gotC, _ := c.Run(input)
			if !reflect.DeepEqual(want, gotC) {
				t.Fatalf("%s trial %d: compiled != scalar\n  scalar=%v\ncompiled=%v", name, trial, want, gotC)
			}
			gotT, gotStats := tiered.Run(input)
			if len(want) == 0 {
				if len(gotT) != 0 {
					t.Fatalf("%s trial %d: tiered=%v scalar=[]", name, trial, gotT)
				}
			} else if !reflect.DeepEqual(want, gotT) {
				t.Fatalf("%s trial %d: tiered != scalar\nscalar=%v\ntiered=%v", name, trial, want, gotT)
			}
			if wantStats != gotStats {
				t.Fatalf("%s trial %d: tiered stats %+v != scalar %+v", name, trial, gotStats, wantStats)
			}
		}
		// Across block edges the fully tiered form is one DFA lane handed
		// whole blocks, and with a budget that keeps x[yz]+w off the DFA tier
		// a DFA lane and an NFA lane stepped cycle by cycle.
		split, err := dfa.BuildTiered(n, dfa.TierOptions{MinStateShare: -1, CCMaxStates: 5})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name == "8/1" && (split.DFA() == nil || split.NFACompiled() == nil) {
			t.Fatalf("%s: the split budget leaves DFA tier %t, NFA tier %t; want both", name, split.DFA() != nil, split.NFACompiled() != nil)
		}
		long := make([]byte, 2*simtest.FeedBlock()+101)
		for i := range long {
			long[i] = "abcdxyzwheadgol "[r.Intn(16)]
		}
		scalar, err := sim.NewEngine(n)
		if err != nil {
			t.Fatal(err)
		}
		want, wantStats := scalar.Run(long, nil)
		for form, tf := range map[string]*dfa.Tiered{"tiered": tiered, "tiered, both tiers": split} {
			open := func(sink sim.ReportSink) simtest.Stream { return tf.NewSession(sink) }
			simtest.BlockEdges(t, name+" "+form, n.BitsPerCycle(), open, long, want, wantStats)
		}
	}
}

// A component whose determinization explodes must land on the NFA tier
// while literal components take the DFA fast path — and the mixed plan
// still reproduces scalar reports.
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
	if tiered.DFA() == nil || tiered.NFACompiled() == nil {
		t.Fatal("mixed plan must build both engines")
	}
	input := []byte("xx literal aXXXXXXXXXXXXb keyword literal")
	want, _, err := sim.Run(n, input)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := tiered.Run(input)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("mixed tier run != scalar\nscalar=%v\n tiered=%v", want, got)
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

// Seal/Unseal round-trips the plan and tables and yields an equivalent
// execution form.
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
	input := []byte("xx impala aXXXXXXXXXXXXb tier impala")
	want, wantStats := tiered.Run(input)
	got, gotStats := restored.Run(input)
	if !reflect.DeepEqual(want, got) || wantStats != gotStats {
		t.Fatalf("unsealed run differs:\n%v %+v\n%v %+v", want, wantStats, got, gotStats)
	}

	// Tampered plans must be rejected.
	bad := *sealed
	bad.Plan.CCs = bad.Plan.CCs[:len(bad.Plan.CCs)-1]
	if _, err := dfa.Unseal(n, &bad); err == nil {
		t.Fatal("truncated plan accepted")
	}
}

// The streaming session over a tiered core must behave identically to the
// batch run regardless of chunking.
func TestTieredSessionChunked(t *testing.T) {
	n := regexc.MustCompile([]regexc.Rule{
		{Pattern: "stream", Code: 1},
		{Pattern: "^sof", Code: 2},
	})
	tiered, err := dfa.BuildTiered(n, dfa.TierOptions{MinStateShare: -1})
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("sofstream stream sof stream")
	want, _ := tiered.Run(input)
	var got []sim.Report
	s := tiered.NewSession(func(r sim.Report) { got = append(got, r) })
	for i := 0; i < len(input); i += 3 {
		end := i + 3
		if end > len(input) {
			end = len(input)
		}
		s.Feed(input[i:end])
	}
	s.Flush()
	sim.SortReports(got)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("chunked session != batch\nbatch=%v\nchunked=%v", want, got)
	}

	// Steady-state Feed through the lockstep core allocates nothing, with
	// the stream metrics off and live.
	for _, reg := range []*obs.Registry{nil, obs.NewRegistry()} {
		sim.EnableMetrics(reg)
		s := tiered.NewSession(func(sim.Report) {})
		s.Feed(input) // warm the sub-symbol scratch buffer
		avg := testing.AllocsPerRun(50, func() { s.Feed(input) })
		sim.EnableMetrics(nil)
		if avg != 0 {
			t.Errorf("metrics live=%t: steady-state tiered Feed allocates %.1f objects/op, want 0", reg != nil, avg)
		}
	}

	// Run drives a session kept with its pooled core: on a pooled core, an
	// input that reports nothing costs no allocation at all. (The fewest of
	// several runs: under the race detector a sync.Pool drops a quarter of
	// what it is given, and a fresh core is not what is pinned here.)
	quiet := bytes.Repeat([]byte("no match here. "), 300)
	if r, _ := tiered.Run(quiet); len(r) != 0 {
		t.Fatalf("the quiet input reports %d times", len(r))
	}
	fewest := math.Inf(1)
	for i := 0; i < 20; i++ {
		fewest = min(fewest, testing.AllocsPerRun(1, func() { tiered.Run(quiet) }))
	}
	if fewest != 0 {
		t.Errorf("a tiered Run that reports nothing allocates %.0f objects on a pooled core, want 0", fewest)
	}
}
