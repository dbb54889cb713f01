package sim

import (
	"testing"

	"impala/internal/automata"
	"impala/internal/bitvec"
)

// Stats must merge across Feed calls / stream segments via Add, and all
// derived aggregates must be well-defined (not NaN) on zero-cycle inputs.
func TestStatsAddAndZeroCycleGuard(t *testing.T) {
	n := automata.New(8, 1)
	n.AddLiteral("ab", automata.StartAllInput, 1)
	c, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	e := c.NewEngine()
	_, whole := e.Run([]byte("abxab"), nil)
	_, first := e.Run([]byte("abx"), nil)
	_, second := e.Run([]byte("ab"), nil)

	sum := first
	sum.Add(second)
	// The two halves split at a cycle boundary but reset inter-cycle state,
	// so only the additive fields are compared against the whole run where
	// they must agree exactly.
	if sum.Cycles != whole.Cycles {
		t.Fatalf("merged cycles %d, whole %d", sum.Cycles, whole.Cycles)
	}
	if sum.Reports != first.Reports+second.Reports {
		t.Fatalf("merged reports %d", sum.Reports)
	}
	if sum.TotalActive != first.TotalActive+second.TotalActive ||
		sum.TotalEnabled != first.TotalEnabled+second.TotalEnabled {
		t.Fatalf("merged totals %+v", sum)
	}
	if want := float64(sum.TotalActive) / float64(sum.Cycles); sum.ActivePerCycleAvg != want {
		t.Fatalf("merged avg %v, want %v", sum.ActivePerCycleAvg, want)
	}
	if sum.PeakActive != max(first.PeakActive, second.PeakActive) {
		t.Fatalf("merged peak %d", sum.PeakActive)
	}

	// Zero-cycle streams: empty batch run and empty Stats merges stay zero.
	_, empty := e.Run(nil, nil)
	if empty != (Stats{}) {
		t.Fatalf("empty-input stats %+v, want zero value", empty)
	}
	var z Stats
	z.Add(Stats{})
	if z.ActivePerCycleAvg != 0 || z != (Stats{}) {
		t.Fatalf("zero-merge stats %+v", z)
	}
	z.Add(whole)
	if z != whole {
		t.Fatalf("zero+whole = %+v, want %+v", z, whole)
	}
}

// The refactor's measurable payoff: once warmed up, Feed performs no
// allocation — scratch buffers are session-owned and reports go through the
// sink in place.
func TestSessionFeedZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    *automata.NFA
	}{
		{"low", lowActivityNFA()},
		{"high", highActivityNFA()},
	} {
		c, err := Compile(tc.n)
		if err != nil {
			t.Fatal(err)
		}
		matches := 0
		s := c.NewSession(func(Report) { matches++ })
		chunk := benchInput(1024)
		s.Feed(chunk) // warm the sub-symbol scratch buffer
		if avg := testing.AllocsPerRun(50, func() { s.Feed(chunk) }); avg != 0 {
			t.Errorf("%s: steady-state Feed allocates %.1f objects/op, want 0", tc.name, avg)
		}
	}
}

// Feed after Flush is a contract violation (the stream has ended); it must
// fail loudly, and Reset must recover the session.
func TestSessionFeedAfterFlushPanics(t *testing.T) {
	n := automata.New(8, 1)
	n.AddLiteral("ab", automata.StartAllInput, 1)
	c, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	s := c.NewSession(nil)
	s.Feed([]byte("ab"))
	s.Flush()
	s.Flush() // idempotent
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Feed after Flush did not panic")
			}
		}()
		s.Feed([]byte("x"))
	}()
	s.Reset()
	s.Feed([]byte("ab"))
	s.Flush()
	if st := s.Stats(); st.Reports != 1 {
		t.Fatalf("after reset: %d reports, want 1", st.Reports)
	}
}

// A chunk that ends mid-cycle leaves carried sub-symbols in the session;
// this pins the exact boundary case on the paper's design point (4-bit ×
// 4-stride: one cycle consumes two bytes, so 1-byte chunks always split a
// cycle in half).
func TestSessionOddNibbleCarry(t *testing.T) {
	n := automata.New(4, 4)
	n.AddState(automata.State{
		// One capsule matching the nibbles of "ab": 6,1,6,2.
		Match: automata.MatchSet{automata.Rect{
			bitvec.ByteOf(6), bitvec.ByteOf(1), bitvec.ByteOf(6), bitvec.ByteOf(2),
		}},
		Start:        automata.StartAllInput,
		Report:       true,
		ReportCode:   9,
		ReportOffset: 4,
	})
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	c, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	var got []Report
	s := c.NewSession(func(r Report) { got = append(got, r) })
	s.Feed([]byte("a")) // two nibbles pending: no complete cycle yet
	if s.Cycles() != 0 || s.BytesFed() != 1 {
		t.Fatalf("half-cycle feed ran %d cycles over %d bytes, want 0 over 1", s.Cycles(), s.BytesFed())
	}
	s.Feed([]byte("b")) // completes the cycle: match fires mid-Feed
	if s.Cycles() != 1 || len(got) != 1 {
		t.Fatalf("after completing cycle: %d cycles, reports %v", s.Cycles(), got)
	}
	if got[0].BitPos != 16 || got[0].Code != 9 {
		t.Fatalf("report %+v, want BitPos 16 Code 9", got[0])
	}
	s.Flush()
	want, _, err := Run(n, []byte("ab"))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 1 || want[0] != got[0] {
		t.Fatalf("streamed %v, batch %v", got, want)
	}
}
