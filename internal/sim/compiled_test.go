package sim_test

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"impala/internal/automata"
	"impala/internal/bitvec"
	"impala/internal/sim"
	"impala/internal/sim/simtest"
	"impala/internal/workload"
)

func sameRun(t *testing.T, what string, gotR, wantR []sim.Report, gotS, wantS sim.Stats) {
	t.Helper()
	if len(gotR) != len(wantR) {
		t.Fatalf("%s: compiled %d reports, scalar %d", what, len(gotR), len(wantR))
	}
	for i := range gotR {
		if gotR[i] != wantR[i] {
			t.Fatalf("%s report %d: compiled %+v, scalar %+v", what, i, gotR[i], wantR[i])
		}
	}
	if gotS != wantS {
		t.Fatalf("%s: compiled stats %+v, scalar stats %+v", what, gotS, wantS)
	}
}

// Property: CompiledEngine and the scalar Engine produce identical report
// lists (field-by-field, not just keys) and identical activity statistics
// on random automata of every geometry — one word of states or several
// summary words of them, a lane attached or not — and on the automata the
// kernel is tuned against (starts in every word, low and high activity;
// starts clustered in three of 38 words with hub rows; the Snort rule set the
// serving benchmark runs), with the kernel's frontier invariant checked after
// every cycle.
func TestCompiledMatchesScalarFuzz(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	trials := 120
	if testing.Short() {
		trials = 30
	}
	sawResidual, sawWideSummary := false, false
	for trial := 0; trial < trials+2; trial++ {
		states := 0
		if trial >= trials { // the last two are past one summary word
			states = 4200 + r.Intn(400)
		}
		n := simtest.RandomNFA(r, states)
		if err := n.Validate(); err != nil {
			t.Fatal(err)
		}
		c, err := sim.Compile(n)
		if err != nil {
			t.Fatal(err)
		}
		if c.ResidualStates() > 0 {
			sawResidual = true
		}
		scalar, err := sim.NewEngine(n)
		if err != nil {
			t.Fatal(err)
		}
		compiled := c.NewEngine()
		sawWideSummary = sawWideSummary || compiled.SummaryWords() > 1
		check := sim.FrontierCheck{T: t, E: compiled}
		for k := 0; k < 4; k++ {
			input := make([]byte, r.Intn(50))
			for i := range input {
				input[i] = byte(r.Intn(256))
			}
			wantR, wantS := scalar.Run(input, nil)
			gotR, gotS := compiled.Run(input, check)
			sameRun(t, "plain", gotR, wantR, gotS, wantS)

			// A lane sees this cycle's active set, its summary naming every
			// non-zero word, and the previous one's.
			var last bitvec.Words
			compiled.SetLane(func(cycle int) {
				check.Consistent(cycle)
				if prev := compiled.PrevActive(); cycle > 0 && !slices.Equal(prev, last) {
					t.Fatalf("trial %d cycle %d: lane's PrevActive is not the last cycle's Active", trial, cycle)
				}
				last = append(last[:0], compiled.ActiveSet().Bits...)
			})
			gotR, gotS = compiled.Run(input, check)
			compiled.SetLane(nil)
			sameRun(t, "with a lane", gotR, wantR, gotS, wantS)
		}
		if states == 0 && trial%16 != 0 {
			continue
		}
		// Across block edges, several summary words included: an odd prefix,
		// then a chunk long enough to be stepped as three blocks, every one
		// starting mid-cycle on the strided geometries. The tracer sees each
		// cycle once, in order.
		input := make([]byte, 3+2*simtest.FeedBlock()+r.Intn(100))
		for i := range input {
			input[i] = byte(r.Intn(256))
		}
		wantR, wantS := scalar.Run(input, nil)
		var gotR []sim.Report
		s := sim.NewSession(compiled, func(r sim.Report) { gotR = append(gotR, r) })
		order := &sim.InOrder{FrontierCheck: check}
		s.SetTracer(order)
		s.Feed(input[:3])
		s.Feed(input[3:])
		s.Flush()
		sim.SortReports(gotR)
		sameRun(t, "across block edges", gotR, wantR, s.Stats(), wantS)
		if order.Next != wantS.Cycles {
			t.Fatalf("trial %d: tracer shown %d cycles of %d", trial, order.Next, wantS.Cycles)
		}
	}
	if !sawResidual {
		t.Fatal("fuzz corpus never exercised the residual scalar path")
	}
	if !sawWideSummary {
		t.Fatal("fuzz corpus never spanned more than one summary word")
	}

	snort := snortNFA(t, 0.02)
	for _, tc := range []struct {
		name  string
		n     *automata.NFA
		input []byte
	}{
		{"low", sim.LowActivityNFA(), sim.BenchInput(8 << 10)},
		{"high", sim.HighActivityNFA(), sim.BenchInput(8 << 10)},
		{"sparse", sim.SparseActivityNFA(), sim.BenchInput(8 << 10)},
		{"snort", snort, workload.Input(snort, 8<<10, 7)},
	} {
		scalar, err := sim.NewEngine(tc.n)
		if err != nil {
			t.Fatal(err)
		}
		c, err := sim.Compile(tc.n)
		if err != nil {
			t.Fatal(err)
		}
		e := c.NewEngine()
		wantR, wantS := scalar.Run(tc.input, nil)
		gotR, gotS := e.Run(tc.input, sim.FrontierCheck{T: t, E: e})
		sameRun(t, tc.name, gotR, wantR, gotS, wantS)
		if wantS.TotalActive == 0 || wantS.TotalEnabled == 0 {
			t.Fatalf("%s: nothing was ever active (%+v); the fixture pins nothing", tc.name, wantS)
		}
	}
}

// A union of rects that is a cartesian product must compile to pure mask
// form; a union that is not must fall back to the residual list — and both
// must match exactly.
func TestCompiledDecomposability(t *testing.T) {
	// {a}×{x} ∪ {b}×{x} = {a,b}×{x}: decomposable.
	dec := automata.New(8, 2)
	dec.AddState(automata.State{
		Match: automata.MatchSet{
			automata.Rect{bitvec.ByteOf('a'), bitvec.ByteOf('x')},
			automata.Rect{bitvec.ByteOf('b'), bitvec.ByteOf('x')},
		},
		Start:      automata.StartAllInput,
		Report:     true,
		ReportCode: 1,
	})
	c, err := sim.Compile(dec)
	if err != nil {
		t.Fatal(err)
	}
	if c.ResidualStates() != 0 {
		t.Fatalf("product union compiled to %d residual states, want 0", c.ResidualStates())
	}

	// {a}×{x} ∪ {b}×{y}: the product closure would also accept (a,y) and
	// (b,x) — not decomposable.
	res := automata.New(8, 2)
	res.AddState(automata.State{
		Match: automata.MatchSet{
			automata.Rect{bitvec.ByteOf('a'), bitvec.ByteOf('x')},
			automata.Rect{bitvec.ByteOf('b'), bitvec.ByteOf('y')},
		},
		Start:      automata.StartAllInput,
		Report:     true,
		ReportCode: 1,
	})
	c, err = sim.Compile(res)
	if err != nil {
		t.Fatal(err)
	}
	if c.ResidualStates() != 1 {
		t.Fatalf("diagonal union compiled to %d residual states, want 1", c.ResidualStates())
	}
	e := c.NewEngine()
	for _, tc := range []struct {
		in   string
		want int
	}{
		{"axby", 2}, {"aybx", 0}, {"axax", 2}, {"aabb", 0}, {"by", 1},
	} {
		reports, _ := e.Run([]byte(tc.in), nil)
		if len(reports) != tc.want {
			t.Fatalf("input %q: %d reports, want %d", tc.in, len(reports), tc.want)
		}
	}
}

// Compile allocates per table, not per state: its allocations do not grow
// with states × stride. Only the lists it builds by append grow, a few
// allocations per doubling of the states, so 256 times the states at
// stride 1 and 4 costs fewer than 32 more allocations.
func TestCompileAllocsFlat(t *testing.T) {
	chain := func(states, stride int) *automata.NFA {
		n := automata.New(8, stride)
		for i := 0; i < states; i++ {
			rect := make(automata.Rect, stride)
			for p := range rect {
				rect[p] = bitvec.ByteOf(byte(i + p)).Add(byte(3 * i))
			}
			n.AddState(automata.State{Match: automata.MatchSet{rect}, Start: automata.StartKind(i % 4), Report: i%7 == 0})
			if i > 0 {
				n.AddEdge(automata.StateID(i-1), automata.StateID(i))
			}
		}
		return n
	}
	allocs := func(n *automata.NFA) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := sim.Compile(n); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, stride := range []int{1, 4} {
		small, large := allocs(chain(64, stride)), allocs(chain(64<<8, stride))
		if large-small >= 32 {
			t.Errorf("stride %d: Compile allocates %.0f objects for 64 states, %.0f for %d: it allocates per state",
				stride, small, large, 64<<8)
		}
	}
}

// The compiled engine must be reusable across runs with no state leaking
// from one run into the next.
func TestCompiledEngineReuse(t *testing.T) {
	n := automata.New(8, 1)
	n.AddLiteral("ab", automata.StartOfData, 1)
	c, err := sim.Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	e := c.NewEngine()
	r1, s1 := e.Run([]byte("abab"), nil)
	r2, s2 := e.Run([]byte("abab"), nil)
	if len(r1) != 1 || len(r2) != len(r1) || s1 != s2 {
		t.Fatalf("engine reuse diverged: run1 %v %+v, run2 %v %+v", r1, s1, r2, s2)
	}
}

// Sharing one Compiled form across concurrent engines must be safe (the
// form is immutable; only CompiledEngine buffers are per-goroutine).
func TestCompiledSharedAcrossGoroutines(t *testing.T) {
	n := automata.New(8, 1)
	n.AddLiteral("needle", automata.StartAllInput, 7)
	c, err := sim.Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("hay needle hay needle")
	want, _ := c.NewEngine().Run(input, nil)
	done := make(chan bool, 8)
	for g := 0; g < 8; g++ {
		go func() {
			e := c.NewEngine()
			for k := 0; k < 50; k++ {
				got, _ := e.Run(input, nil)
				if len(got) != len(want) {
					done <- false
					return
				}
			}
			done <- true
		}()
	}
	for g := 0; g < 8; g++ {
		if !<-done {
			t.Fatal("concurrent run diverged")
		}
	}
}

func snortNFA(t *testing.T, scale float64) *automata.NFA {
	t.Helper()
	b, ok := workload.Get("Snort")
	if !ok {
		t.Fatal("no Snort generator in the workload suite")
	}
	n, err := b.Generate(scale, 1)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// Paper scale: the 100,520-state Snort source automaton. The compiled form
// is linear in states and edges — the dense successor matrix it replaced
// needed 1.27 GB and seven seconds for this call — and still agrees with the
// scalar engine.
func TestCompiledPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a 100,520-state automaton")
	}
	n := snortNFA(t, 1.0)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c, err := sim.Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if live := int64(after.HeapAlloc) - int64(before.HeapAlloc); live > 32<<20 {
		t.Fatalf("Compile of %d states keeps %d MB live, want < 32", n.NumStates(), live>>20)
	}
	scalar, err := sim.NewEngine(n)
	if err != nil {
		t.Fatal(err)
	}
	input := workload.Input(n, 4<<10, 3)
	wantR, wantS := scalar.Run(input, nil)
	gotR, gotS := c.Run(input)
	sameRun(t, "snort at scale 1.0", gotR, wantR, gotS, wantS)
}

// A pooled engine that stopped mid-stream — a session abandoned without
// Flush — must start its next run exactly as a fresh engine would, and be
// consistent whenever it is idle.
func TestPooledEngineAbortedRuns(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		states := 0
		if trial%8 == 7 {
			states = 300 + r.Intn(200) // several words, starts in the first
		}
		n := simtest.RandomNFA(r, states)
		c, err := sim.Compile(n)
		if err != nil {
			t.Fatal(err)
		}
		input := make([]byte, 20+r.Intn(100))
		for i := range input {
			input[i] = byte(r.Intn(256))
		}
		wantR, wantS := c.NewEngine().Run(input, nil)

		pooled, e := c.Pooled()
		check := sim.FrontierCheck{T: t, E: e}
		for round := 0; round < 3; round++ {
			// Abandon a stream part-way, mid-cycle where the geometry allows.
			s := sim.NewSession(e, nil)
			s.Feed(input[:1+r.Intn(len(input)-1)])
			check.Consistent(-1)

			gotR, gotS := pooled.RunPooled(input, check)
			sameRun(t, "after an abandoned stream", gotR, wantR, gotS, wantS)

			c.Release(pooled)
			pooled, e = c.Pooled()
			check.E = e
			check.Consistent(-1)
			gotR, gotS = pooled.RunPooled(input, check)
			sameRun(t, "after release", gotR, wantR, gotS, wantS)
		}
		e.ResetState()
		if !e.Idle() {
			t.Fatalf("trial %d: ResetState left a vector or a summary non-empty", trial)
		}
	}
}
