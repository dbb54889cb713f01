package core

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"impala/internal/automata"
	"impala/internal/dfa"
	"impala/internal/shard"
	"impala/internal/workload"
)

// randWeights builds a random integer-valued weight table for n, including
// heterogeneous in-edge weights.
func randWeights(r *rand.Rand, n *automata.NFA) *automata.Weights {
	w := automata.NewWeights(n)
	for i := range w.Edge {
		for j := range w.Edge[i] {
			w.Edge[i][j] = float64(r.Intn(21) - 10)
		}
		w.Start[i] = float64(r.Intn(11) - 5)
	}
	w.Threshold = -1000
	return w
}

var weightGeometries = []Config{
	{TargetBits: 8, StrideDims: 1},
	{TargetBits: 4, StrideDims: 1},
	{TargetBits: 4, StrideDims: 2},
	{TargetBits: 4, StrideDims: 4},
}

// A zero weight table must not perturb the compiled automaton relative to
// a plain weighted compile at the same design point (weight-class keys all
// carry 0, so grouping is unchanged). Minimize is skipped on weighted
// compiles, so the binary reference disables it too.
func TestCompileZeroWeightsShapeIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 5; trial++ {
		n := randNFA(r, 3+r.Intn(5))
		for _, cfg := range weightGeometries {
			bcfg := cfg
			bcfg.DisableMinimize = true
			bin, err := Compile(n, bcfg)
			if err != nil {
				t.Fatal(err)
			}
			wcfg := cfg
			wcfg.Weights = automata.NewWeights(n)
			sc, err := Compile(n, wcfg)
			if err != nil {
				t.Fatal(err)
			}
			db, _ := json.Marshal(bin.NFA)
			ds, _ := json.Marshal(sc.NFA)
			if string(db) != string(ds) {
				t.Fatalf("trial %d cfg %+v: zero-weight compile diverged from binary compile", trial, cfg)
			}
			if sc.Weights == nil {
				t.Fatal("weighted compile returned nil weights")
			}
			if err := sc.Weights.Validate(sc.NFA); err != nil {
				t.Fatalf("output weights invalid: %v", err)
			}
			for i, row := range sc.Weights.Edge {
				for j, v := range row {
					if v != 0 {
						t.Fatalf("state %d edge %d: zero-weight compile produced weight %g", i, j, v)
					}
				}
				if sc.Weights.Start[i] != 0 {
					t.Fatalf("state %d: zero-weight compile produced start weight %g", i, sc.Weights.Start[i])
				}
			}
		}
	}
}

// Weighted compiles must emit a weight table shaped exactly for the output
// automaton at every design point, with weights inside the validation
// bounds, and the threshold carried through.
func TestCompileWeightsShapeValid(t *testing.T) {
	r := rand.New(rand.NewSource(88))
	for trial := 0; trial < 5; trial++ {
		n := randNFA(r, 3+r.Intn(5))
		w := randWeights(r, n)
		w.Threshold = float64(trial) - 2
		for _, cfg := range weightGeometries {
			cfg.Weights = w
			res, err := Compile(n, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Weights == nil {
				t.Fatal("weighted compile returned nil weights")
			}
			if err := res.Weights.Validate(res.NFA); err != nil {
				t.Fatalf("trial %d cfg %+v: output weights invalid: %v", trial, cfg, err)
			}
			if res.Weights.Threshold != w.Threshold {
				t.Fatalf("threshold %g not carried (want %g)", res.Weights.Threshold, w.Threshold)
			}
			// Strided edge weights are sums of at most StrideDims base
			// weights.
			limit := float64(cfg.StrideDims) * 10 * 2
			for i, row := range res.Weights.Edge {
				for j, v := range row {
					if math.Abs(v) > limit {
						t.Fatalf("state %d edge %d weight %g outside composed bound %g", i, j, v, limit)
					}
				}
			}
		}
	}
}

// Weights compose with Tier and Shards: the plans run after the transforms,
// over whole components, so the scored automaton and its table are the same
// with or without them. A malformed table must be rejected up front.
func TestCompileWeightsComposeWithPlans(t *testing.T) {
	n := litNFA(false, "ab", "cd", "efg")
	w := randWeights(rand.New(rand.NewSource(5)), n)
	base, err := Compile(n, Config{TargetBits: 4, StrideDims: 2, Weights: w})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{Tier: &dfa.TierOptions{}},
		{Shards: 2},
		{Shards: 2, Tier: &dfa.TierOptions{}},
	} {
		cfg.TargetBits, cfg.StrideDims, cfg.Weights = 4, 2, w
		res, err := Compile(n, cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if (res.Tier != nil) != (cfg.Shards == 0) || (res.Shards != nil) != (cfg.Shards == 2) {
			t.Fatalf("%+v: tier plan %v, shard plan %v", cfg, res.Tier != nil, res.Shards != nil)
		}
		if !reflect.DeepEqual(res.NFA, base.NFA) || !reflect.DeepEqual(res.Weights, base.Weights) {
			t.Fatalf("%+v: the plan changed the scored automaton", cfg)
		}
	}

	// The dna_scored_match mesh loses its threshold-dead states in the
	// threshold-prune stage, after the last transform and before any plan,
	// so its tier and shard plans cover exactly the 672 live states. A binary
	// compile records no such stage.
	r := rand.New(rand.NewSource(1))
	costs := workload.DefaultAlignCosts
	mesh, mw, err := workload.ScoredLevenshtein(workload.RandomPatterns(r, 8, 12, "ACGT"), 2, costs, 11*costs.Match+costs.Gap)
	if err != nil {
		t.Fatal(err)
	}
	const live = 672
	for _, cfg := range []Config{{}, {Tier: &dfa.TierOptions{}}, {Shards: 2}, {Shards: 2, Tier: &dfa.TierOptions{}}} {
		cfg.TargetBits, cfg.StrideDims, cfg.Weights = 4, 4, mw
		res, err := Compile(mesh, cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		var names []string
		for _, st := range res.Stages {
			names = append(names, st.Name)
		}
		want := []string{"v-tess", "espresso-refine", "threshold-prune"}
		switch {
		case cfg.Shards > 1:
			want = append(want, "shard-plan")
		case cfg.Tier != nil:
			want = append(want, "tier-select")
		}
		if !slices.Equal(names, want) || res.Stages[2].States != live || res.NFA.NumStates() != live {
			t.Fatalf("%+v: stages %v, %d states after threshold-prune, %d compiled: want stages %v and %d states",
				cfg, names, res.Stages[2].States, res.NFA.NumStates(), want, live)
		}
		if res.Tier != nil {
			if p := res.Tier.Plan; p.NFAStates+p.DFANFAStates != live {
				t.Fatalf("%+v: the tier plan covers %d NFA and %d DFA states, want %d in all", cfg, p.NFAStates, p.DFANFAStates, live)
			}
			if _, err := dfa.UnsealSelection(res.NFA, res.Tier); err != nil {
				t.Fatalf("%+v: the tier plan does not cover the pruned automaton: %v", cfg, err)
			}
		}
		if res.Shards != nil {
			got := 0
			for _, k := range res.Shards.Plan.ShardStates() {
				got += k
			}
			if got != live {
				t.Fatalf("%+v: the shard plan holds %d states, want %d", cfg, got, live)
			}
			if _, err := shard.Unseal(res.NFA, res.Shards); err != nil {
				t.Fatalf("%+v: the shard plan does not cover the pruned automaton: %v", cfg, err)
			}
		}
	}
	bin, err := Compile(mesh, Config{TargetBits: 4, StrideDims: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range bin.Stages {
		if st.Name == "threshold-prune" {
			t.Fatal("a binary compile records a threshold-prune stage")
		}
	}

	bad := automata.NewWeights(n)
	bad.Start[0] = math.NaN()
	if _, err := Compile(n, Config{TargetBits: 4, StrideDims: 2, Weights: bad}); err == nil {
		t.Fatal("NaN weight accepted")
	}
	short := &automata.Weights{}
	if _, err := Compile(n, Config{TargetBits: 4, StrideDims: 2, Weights: short}); err == nil {
		t.Fatal("mis-shaped weights accepted")
	}
}
