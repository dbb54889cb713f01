package shard_test

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"impala/internal/automata"
	"impala/internal/core"
	"impala/internal/dfa"
	"impala/internal/obs"
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

// Differential pin (acceptance criterion): sharded reports are exactly the
// unsharded compiled engine's across all four workload families × strides
// {1, 2, 4} × shard counts {1, 2, 3, 8}, untiered and (at the design
// point) with per-shard tiering.
func TestShardedDifferentialWorkloads(t *testing.T) {
	families := []string{"ExactMatch", "Hamming", "RandomForest", "CoreRings"}
	for _, name := range families {
		b, ok := workload.Get(name)
		if !ok {
			t.Fatalf("unknown benchmark %q", name)
		}
		n8, err := b.Generate(0.01, 1)
		if err != nil {
			t.Fatal(err)
		}
		input := workload.Input(n8, 8*1024, 4)
		for _, stride := range []int{1, 2, 4} {
			res, err := core.Compile(n8, core.Config{TargetBits: 4, StrideDims: stride})
			if err != nil {
				t.Fatalf("%s stride %d: %v", name, stride, err)
			}
			n := res.NFA
			c, err := sim.Compile(n)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := c.Run(input)
			for _, k := range []int{1, 2, 3, 8} {
				opts := []shard.Options{{Shards: k}}
				if stride == 4 {
					opts = append(opts, shard.Options{Shards: k, Tier: &dfa.TierOptions{MinStateShare: -1}})
				}
				for _, o := range opts {
					s, err := shard.Build(n, o)
					if err != nil {
						t.Fatalf("%s stride %d shards %d (tier=%v): %v", name, stride, k, o.Tier != nil, err)
					}
					got, _ := s.Run(input)
					if !sim.SameReports(want, got) {
						t.Fatalf("%s stride %d shards %d (tier=%v): sharded reports diverge (%d vs %d)",
							name, stride, k, o.Tier != nil, len(got), len(want))
					}
				}
			}
		}
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

// The lockstep core partitions the per-cycle counts exactly: a sharded
// session reproduces the unsharded compiled engine's reports and
// statistics field for field — and so does Run, whatever the host's core
// count (GOMAXPROCS is raised so a Run that fanned out by itself would show).
func TestShardedLockstepStatsExact(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	n := multiCC(t)
	c, err := sim.Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("impala shard sharda head merge goal goooal merge impala")
	var want []sim.Report
	ws := sim.NewSession(c.NewEngine(), func(r sim.Report) { want = append(want, r) })
	ws.Feed(input)
	ws.Flush()
	sim.SortReports(want)

	scalar, err := sim.NewEngine(n)
	if err != nil {
		t.Fatal(err)
	}
	_, scalarStats := sim.RunBatch(scalar, input, 0, nil)
	if scalarStats != ws.Stats() {
		t.Fatalf("compiled stats %+v != scalar %+v", ws.Stats(), scalarStats)
	}

	long := bytes.Repeat(input, 2*simtest.FeedBlock()/len(input)+2)
	long = long[:len(long)-len(long)%2-1]
	longWant, longStats := sim.RunBatch(scalar, long, 0, nil)

	for _, k := range []int{1, 2, 3, 8} {
		for _, topt := range []*dfa.TierOptions{nil, {MinStateShare: -1}} {
			s, err := shard.Build(n, shard.Options{Shards: k, Tier: topt})
			if err != nil {
				t.Fatal(err)
			}
			id := fmt.Sprintf("shards=%d tier=%v", k, topt != nil)
			var got []sim.Report
			gs := s.NewSession(func(r sim.Report) { got = append(got, r) })
			gs.Feed(input)
			gs.Flush()
			sim.SortReports(got)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: lockstep reports diverge\nwant=%v\n got=%v", id, want, got)
			}
			if ws.Stats() != gs.Stats() {
				t.Fatalf("%s: lockstep stats %+v != unsharded %+v", id, gs.Stats(), ws.Stats())
			}
			runReports, runStats := s.Run(input)
			if !reflect.DeepEqual(want, runReports) {
				t.Fatalf("%s: Run reports diverge\nwant=%v\n got=%v", id, want, runReports)
			}
			if runStats != scalarStats {
				t.Fatalf("%s: Run stats %+v != scalar engine's %+v", id, runStats, scalarStats)
			}
			// Stepped in blocks, the lanes stay interleaved cycle by cycle:
			// however a long stream is cut around a block edge, the sink
			// sees the sequence of the whole-stream run.
			open := func(sink sim.ReportSink) simtest.Stream { return s.NewSession(sink) }
			simtest.BlockEdges(t, id, n.BitsPerCycle(), open, long, longWant, longStats)
		}
	}

	// K × tier on the four workload families: the lockstep core has at most
	// two children at any K — one walker over every live shard's DFA, one
	// kernel over every state no DFA covers, not a core per shard holding a
	// core per tier — and a session over it still reproduces the unsharded
	// engine's reports and statistics exactly. Each family's split budget
	// falls between its components' trial DFA sizes, so its shards hold a
	// DFA tier and an NFA tier side by side.
	for name, split := range map[string]int{"ExactMatch": 150, "Hamming": 1700, "RandomForest": 47, "CoreRings": 10} {
		b, _ := workload.Get(name)
		n8, err := b.Generate(0.01, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Compile(n8, core.Config{TargetBits: 4, StrideDims: 4})
		if err != nil {
			t.Fatal(err)
		}
		c, err := sim.Compile(res.NFA)
		if err != nil {
			t.Fatal(err)
		}
		input := workload.Input(n8, 4*1024, 4)
		want, wantStats := c.Run(input)
		twoLaneShards := false
		for _, k := range []int{1, 2, 3, 8} {
			for _, topt := range []*dfa.TierOptions{nil, {MinStateShare: -1}, {MinStateShare: -1, CCMaxStates: split}} {
				s, err := shard.Build(res.NFA, shard.Options{Shards: k, Tier: topt})
				if err != nil {
					t.Fatal(err)
				}
				id := fmt.Sprintf("%s shards=%d tier=%+v", name, k, topt)
				dfaLane, nfaLane := 0, 0
				for i, states := range s.Plan().ShardStates() {
					switch tier := s.Seal().Tiers[i]; {
					case states == 0:
					case tier == nil:
						nfaLane = 1
					default:
						if tier.DFA != nil {
							dfaLane = 1
						}
						if tier.Plan.NFAStates > 0 {
							nfaLane = 1
						}
						twoLaneShards = twoLaneShards || (tier.DFA != nil && tier.Plan.NFAStates > 0)
					}
				}
				if got := len(s.Lanes()); got != dfaLane+nfaLane {
					t.Fatalf("%s: lockstep core has %d children, the shards' tiers call for %d DFA + %d NFA lanes", id, got, dfaLane, nfaLane)
				}
				got, gotStats := sim.RunBatch(s.NewCore(), input, 0, nil)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%s: lockstep reports diverge (%d vs %d)", id, len(got), len(want))
				}
				if gotStats != wantStats {
					t.Fatalf("%s: lockstep stats %+v != unsharded %+v", id, gotStats, wantStats)
				}
			}
		}
		if !twoLaneShards {
			t.Fatalf("%s: no shard held both a DFA and an NFA lane at budget %d; the flattening went unexercised", name, split)
		}
	}
}

// Chunked streaming over a sharded session equals the batch run for any
// chunking.
func TestShardedSessionChunked(t *testing.T) {
	n := multiCC(t)
	s, err := shard.Build(n, shard.Options{Shards: 3, Tier: &dfa.TierOptions{MinStateShare: -1}})
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("headimpala shard goal merge impala head")
	want, _ := s.Run(input)
	var got []sim.Report
	sess := s.NewSession(func(r sim.Report) { got = append(got, r) })
	for i := 0; i < len(input); i += 3 {
		end := i + 3
		if end > len(input) {
			end = len(input)
		}
		sess.Feed(input[i:end])
	}
	sess.Flush()
	sim.SortReports(got)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("chunked session != batch\nbatch=%v\nchunked=%v", want, got)
	}

	// Steady-state Feed through the flattened lockstep core allocates
	// nothing, with the stream metrics off and live.
	for _, reg := range []*obs.Registry{nil, obs.NewRegistry()} {
		sim.EnableMetrics(reg)
		sess := s.NewSession(func(sim.Report) {})
		sess.Feed(input) // warm the sub-symbol scratch buffer
		avg := testing.AllocsPerRun(50, func() { sess.Feed(input) })
		sim.EnableMetrics(nil)
		if avg != 0 {
			t.Errorf("metrics live=%t: steady-state sharded Feed allocates %.1f objects/op, want 0", reg != nil, avg)
		}
	}

	// Run drives a session kept with its pooled core: on a pooled core, an
	// input that reports nothing costs no allocation at all. (The fewest of
	// several runs: under the race detector a sync.Pool drops a quarter of
	// what it is given, and a fresh core is not what is pinned here.)
	quiet := bytes.Repeat([]byte("no match here. "), 300)
	if r, _ := s.Run(quiet); len(r) != 0 {
		t.Fatalf("the quiet input reports %d times", len(r))
	}
	fewest := math.Inf(1)
	for i := 0; i < 20; i++ {
		fewest = min(fewest, testing.AllocsPerRun(1, func() { s.Run(quiet) }))
	}
	if fewest != 0 {
		t.Errorf("a sharded Run that reports nothing allocates %.0f objects on a pooled core, want 0", fewest)
	}
}

// Edge cases: a single-component automaton sharded far wider than its
// component count, and the empty automaton, both execute exactly; invalid
// shard counts are rejected.
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
	input := []byte("a solo soloooo b")
	want, _, err := sim.Run(single, input)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := s.Run(input)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("single-CC sharded run != scalar\nscalar=%v\nsharded=%v", want, got)
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

// Seal/Unseal round-trips the partition and per-shard tier seals into an
// equivalent execution form; tampered seals are rejected.
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
	input := []byte("impala shard head goal merge impala")
	want, _ := s.Run(input)
	got, _ := restored.Run(input)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("unsealed run differs:\n%v\n%v", want, got)
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

// UnsealShards with a keep subset is the worker side of cluster dispatch:
// each worker's reports are exactly the kept shards' contribution, the
// per-shard report sets are disjoint, and their union is the full run.
func TestUnsealShardsKeepSubset(t *testing.T) {
	n := multiCC(t)
	s, err := shard.Build(n, shard.Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	sealed := s.Seal()
	input := []byte("impala shard head goal merge impala shord goooal")
	full, _ := s.Run(input)
	if len(full) == 0 {
		t.Fatal("no reports; test is vacuous")
	}

	seen := map[[2]int]int{}
	var union []sim.Report
	for keep := 0; keep < 3; keep++ {
		w, err := shard.UnsealShards(n, sealed, []int{keep})
		if err != nil {
			t.Fatalf("keep=%d: %v", keep, err)
		}
		reports, _ := w.Run(input)
		for _, r := range reports {
			seen[r.Key()]++
			if seen[r.Key()] > 1 {
				t.Fatalf("report %v emitted by more than one shard subset", r)
			}
		}
		union = append(union, reports...)
	}
	if !sim.SameReports(full, union) {
		t.Fatalf("kept-subset union diverges from full run: %d vs %d reports", len(union), len(full))
	}

	// An empty keep slice is a legal idle worker: no engines, no reports.
	idle, err := shard.UnsealShards(n, sealed, []int{})
	if err != nil {
		t.Fatal(err)
	}
	if reports, _ := idle.Run(input); len(reports) != 0 {
		t.Fatalf("idle worker reported %d matches", len(reports))
	}

	// Out-of-range kept indices are rejected.
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
