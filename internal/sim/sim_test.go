package sim

import (
	"math/rand"
	"slices"
	"testing"

	"impala/internal/automata"
	"impala/internal/bitvec"
)

func mustRun(t *testing.T, n *automata.NFA, input string) ([]Report, Stats) {
	t.Helper()
	r, s, err := Run(n, []byte(input))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return r, s
}

func TestLiteralMatch(t *testing.T) {
	n := automata.New(8, 1)
	n.AddLiteral("abc", automata.StartAllInput, 7)
	reports, _ := mustRun(t, n, "xxabcxxabc")
	if len(reports) != 2 {
		t.Fatalf("reports = %v", reports)
	}
	// First match ends at byte 5 (1-based), so 40 bits.
	if reports[0].BitPos != 40 || reports[0].Code != 7 {
		t.Fatalf("first report = %+v", reports[0])
	}
	if reports[1].BitPos != 80 {
		t.Fatalf("second report = %+v", reports[1])
	}
}

func TestOverlappingMatches(t *testing.T) {
	n := automata.New(8, 1)
	n.AddLiteral("aa", automata.StartAllInput, 1)
	reports, _ := mustRun(t, n, "aaaa")
	// Matches end at bytes 2,3,4.
	if len(reports) != 3 {
		t.Fatalf("reports = %v", reports)
	}
}

func TestAnchoredMatch(t *testing.T) {
	n := automata.New(8, 1)
	n.AddLiteral("ab", automata.StartOfData, 1)
	if r, _ := mustRun(t, n, "abab"); len(r) != 1 || r[0].BitPos != 16 {
		t.Fatalf("anchored reports = %v", r)
	}
	if r, _ := mustRun(t, n, "xab"); len(r) != 0 {
		t.Fatalf("anchored matched mid-stream: %v", r)
	}
}

func TestFig1Language(t *testing.T) {
	// (A|C)*(C|T)(G)+ over {A,T,C,G}, all-input start.
	n := automata.New(8, 1)
	ste0 := n.AddState(automata.ByteMatchState(bitvec.ByteOf('A').Union(bitvec.ByteOf('C')), automata.StartAllInput, false))
	ste1 := n.AddState(automata.ByteMatchState(bitvec.ByteOf('C').Union(bitvec.ByteOf('T')), automata.StartAllInput, false))
	ste2 := n.AddState(automata.ByteMatchState(bitvec.ByteOf('C').Union(bitvec.ByteOf('T')), automata.StartAllInput, false))
	ste3 := n.AddState(automata.ByteMatchState(bitvec.ByteOf('G'), automata.StartNone, true))
	n.AddEdge(ste0, ste0)
	n.AddEdge(ste0, ste1)
	n.AddEdge(ste1, ste3)
	n.AddEdge(ste2, ste3)
	n.AddEdge(ste3, ste3)

	reports, _ := mustRun(t, n, "ACGG")
	// "CG" ends at 3 (C from ste1 path after A loop; G reports), "CGG" at 4.
	if len(reports) != 2 || reports[0].BitPos != 24 || reports[1].BitPos != 32 {
		t.Fatalf("reports = %v", reports)
	}
	if r, _ := mustRun(t, n, "AAAA"); len(r) != 0 {
		t.Fatalf("no-G input reported: %v", r)
	}
}

func TestNibbleAutomaton(t *testing.T) {
	// Hand-built 4-bit automaton matching byte 0xAB: hi state A, lo state B.
	n := automata.New(4, 1)
	hi := n.AddState(automata.State{
		Match: automata.MatchSet{automata.Rect{bitvec.ByteOf(0xA)}},
		Start: automata.StartAllInput,
	})
	lo := n.AddState(automata.State{
		Match:  automata.MatchSet{automata.Rect{bitvec.ByteOf(0xB)}},
		Report: true,
	})
	n.AddEdge(hi, lo)
	reports, _ := mustRun(t, n, "\xab\xcd\xab")
	// Nibble positions: 0xAB ends at nibble 2 (8 bits) and nibble 6 (24 bits).
	if len(reports) != 2 || reports[0].BitPos != 8 || reports[1].BitPos != 24 {
		t.Fatalf("reports = %v", reports)
	}
}

func TestStridedAutomatonWithPadding(t *testing.T) {
	// Hand-built 2-stride 4-bit automaton matching byte 0xAB at any byte
	// offset, reporting at offset 2 (full chunk).
	n := automata.New(4, 2)
	full := automata.MatchSet{automata.Rect{bitvec.ByteOf(0xA), bitvec.ByteOf(0xB)}}
	st := n.AddState(automata.State{Match: full, Start: automata.StartAllInput, Report: true, ReportOffset: 2})
	n.AddEdge(st, st)
	reports, _ := mustRun(t, n, "\xab\xab")
	if len(reports) != 2 || reports[0].BitPos != 8 || reports[1].BitPos != 16 {
		t.Fatalf("reports = %v", reports)
	}
}

func TestEndOfInputPaddingFiltersPhantomReports(t *testing.T) {
	// 2-stride automaton whose state matches (0xA, *) and reports at offset
	// 2: with input of a single nibble 0xA (one byte 0xA5 gives nibbles A,5 —
	// use a crafted single-nibble case via an odd sub-symbol count by using
	// bits=8 stride=2 and 1 byte).
	n := automata.New(8, 2)
	r := automata.Rect{bitvec.ByteOf('a'), bitvec.ByteAll()}
	st := n.AddState(automata.State{
		Match:        automata.MatchSet{r},
		Start:        automata.StartAllInput,
		Report:       true,
		ReportOffset: 2,
	})
	_ = st
	reports, _ := mustRun(t, n, "a")
	// The chunk is (a, pad); report offset 2 exceeds the 1-byte input, so
	// it must be filtered.
	if len(reports) != 0 {
		t.Fatalf("phantom report past end of input: %v", reports)
	}
	// But a mid-chunk report (offset 1) within the input must fire.
	n.States[0].ReportOffset = 1
	reports, _ = mustRun(t, n, "a")
	if len(reports) != 1 || reports[0].BitPos != 8 {
		t.Fatalf("offset-1 report = %v", reports)
	}
}

func TestStats(t *testing.T) {
	n := automata.New(8, 1)
	n.AddLiteral("ab", automata.StartAllInput, 1)
	_, stats := mustRun(t, n, "abab")
	if stats.Cycles != 4 {
		t.Fatalf("cycles = %d", stats.Cycles)
	}
	if stats.Reports != 2 {
		t.Fatalf("reports = %d", stats.Reports)
	}
	if stats.TotalActive == 0 || stats.PeakActive == 0 || stats.ActivePerCycleAvg <= 0 {
		t.Fatalf("activity stats empty: %+v", stats)
	}
}

type countTracer struct{ cycles, active int }

func (c *countTracer) OnCycle(cycle int, enabled, active bitvec.Words) {
	c.cycles++
	c.active += active.Count()
}

func TestTracer(t *testing.T) {
	n := automata.New(8, 1)
	n.AddLiteral("ab", automata.StartAllInput, 1)
	e, err := NewEngine(n)
	if err != nil {
		t.Fatal(err)
	}
	var tr countTracer
	_, stats := e.Run([]byte("abab"), &tr)
	if tr.cycles != stats.Cycles || int64(tr.active) != stats.TotalActive {
		t.Fatalf("tracer saw %d/%d, stats %d/%d", tr.cycles, tr.active, stats.Cycles, stats.TotalActive)
	}
}

func TestSubSymbols(t *testing.T) {
	got := SubSymbols(4, []byte{0xAB, 0x0F})
	want := []byte{0xA, 0xB, 0x0, 0xF}
	if len(got) != 4 {
		t.Fatalf("SubSymbols = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SubSymbols = %v, want %v", got, want)
		}
	}
	if len(SubSymbols(8, []byte("xy"))) != 2 {
		t.Fatal("8-bit SubSymbols should be identity")
	}
}

func TestReportKeysDedup(t *testing.T) {
	rs := []Report{
		{BitPos: 8, Code: 1, State: 0},
		{BitPos: 8, Code: 1, State: 5}, // same match via a split state
		{BitPos: 16, Code: 1, State: 0},
	}
	keys := ReportKeys(rs)
	if len(keys) != 2 {
		t.Fatalf("keys = %v", keys)
	}
	if !SameReports(rs, rs[:2]) == (len(keys) == 1) {
		// rs has two distinct keys; rs[:2] one — must differ.
		if SameReports(rs, rs[:2]) {
			t.Fatal("SameReports false positive")
		}
	}
}

func TestEngineRejectsInvalid(t *testing.T) {
	n := automata.New(8, 1)
	n.AddState(automata.State{Match: automata.MatchSet{}, ReportOffset: 1})
	if _, err := NewEngine(n); err == nil {
		t.Fatal("invalid automaton accepted")
	}
}

func TestEmptyInput(t *testing.T) {
	n := automata.New(8, 1)
	n.AddLiteral("a", automata.StartAllInput, 1)
	reports, stats := mustRun(t, n, "")
	if len(reports) != 0 || stats.Cycles != 0 {
		t.Fatalf("empty input: %v %+v", reports, stats)
	}
}

// SortReports runs on every kernel and lockstep one-shot Run: it sorts in
// place and allocates nothing however many reports it is handed.
func TestSortReportsAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	reports := make([]Report, 300)
	for i := range reports {
		reports[i] = Report{BitPos: 4 * r.Intn(40), Code: r.Intn(5), State: automata.StateID(r.Intn(8))}
	}
	work := make([]Report, len(reports))
	if avg := testing.AllocsPerRun(20, func() { copy(work, reports); SortReports(work) }); avg != 0 {
		t.Errorf("SortReports of %d reports allocates %.1f objects, want 0", len(work), avg)
	}
}

// FuzzSortReports holds SortReports to slices.SortFunc's order: on any input
// the result is a permutation of it sorted by (BitPos, Code, State), and on
// distinct keys it is exactly slices.SortFunc's result. Each pair of bytes is
// a report; with climb set its BitPos is a running sum that falls only now
// and then, the near-sorted order a session emits, which the insertion pass
// serves, and otherwise it is the first byte, so the fallback sort is reached.
func FuzzSortReports(f *testing.F) {
	reversed := make([]byte, 0, 2*200)
	for i := 200; i > 0; i-- {
		reversed = append(reversed, byte(i), byte(i*7))
	}
	sameBitPos := make([]byte, 0, 2*100)
	for i := 0; i < 100; i++ {
		sameBitPos = append(sameBitPos, 9, byte(255-i))
	}
	f.Add(reversed, false)
	f.Add(sameBitPos, false)
	f.Add([]byte{3, 0x21, 1, 0x12, 0, 0x11, 2, 0x33, 0, 0x31}, true)
	f.Add([]byte{}, false)
	f.Fuzz(func(t *testing.T, data []byte, climb bool) {
		in := make([]Report, len(data)/2)
		pos := 0
		for i := range in {
			a, b := data[2*i], data[2*i+1]
			if climb {
				pos = max(0, pos+int(a%8)-1)
			} else {
				pos = int(a)
			}
			// Score tags each report with its input index, so got can be
			// checked against the input one report at a time.
			in[i] = Report{BitPos: pos, Code: int(b >> 4), State: automata.StateID(b & 15), Score: float64(i)}
		}
		got := slices.Clone(in)
		SortReports(got)
		seen := make([]bool, len(in))
		for i, r := range got {
			if k := int(r.Score); seen[k] || in[k] != r {
				t.Fatalf("result is not a permutation of the input: %v at %d", r, i)
			}
			seen[int(r.Score)] = true
			if i > 0 && compareReports(got[i-1], r) > 0 {
				t.Fatalf("reports %d and %d out of order: %v, %v", i-1, i, got[i-1], r)
			}
		}
		want := slices.Clone(in)
		slices.SortFunc(want, compareReports)
		distinct := true
		for i := 1; i < len(want); i++ {
			distinct = distinct && compareReports(want[i-1], want[i]) != 0
		}
		if distinct && !slices.Equal(got, want) {
			t.Fatalf("distinct keys sort to %v, slices.SortFunc's %v", got, want)
		}
	})
}
