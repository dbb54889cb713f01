package sim

import (
	"math/rand"
	"testing"

	"impala/internal/automata"
	"impala/internal/bitvec"
)

// randomPartition splits input into a random chunk sequence, deliberately
// including empty chunks and 1-byte chunks — the boundary cases of the
// streaming carry logic (odd nibbles/crumbs, cycles straddling chunks).
func randomPartition(r *rand.Rand, input []byte) [][]byte {
	var chunks [][]byte
	switch r.Intn(4) {
	case 0: // all 1-byte chunks
		for i := range input {
			chunks = append(chunks, input[i:i+1])
		}
	case 1: // one chunk (plus a leading and trailing empty)
		chunks = append(chunks, nil, input, []byte{})
	default: // random sizes with interleaved empties
		for pos := 0; pos < len(input); {
			if r.Intn(4) == 0 {
				chunks = append(chunks, nil)
			}
			sz := 1 + r.Intn(9)
			if sz > len(input)-pos {
				sz = len(input) - pos
			}
			chunks = append(chunks, input[pos:pos+sz])
			pos += sz
		}
	}
	return chunks
}

// Property (the tentpole's correctness criterion): streaming execution
// through an arbitrary chunk partition — for both the scalar and compiled
// cores, across every (bits, stride) geometry — produces reports and stats
// byte-identical to the batch path on the same input.
func TestSessionChunkedMatchesBatchFuzz(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	trials := 150
	if testing.Short() {
		trials = 40
	}
	for trial := 0; trial < trials; trial++ {
		n := randomNFAAllGeometries(r)
		scalar, err := NewEngine(n)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compile(n)
		if err != nil {
			t.Fatal(err)
		}
		size := r.Intn(120)
		if trial%10 == 9 {
			// Long enough that one Feed unpacks several blocks, with the
			// sub-symbol carry crossing from block to block.
			size = 2*feedBlock + r.Intn(120)
		}
		input := make([]byte, size)
		for i := range input {
			input[i] = byte(r.Intn(256))
		}
		wantR, wantS := scalar.Run(input, nil)

		compiled := c.NewEngine()
		for name, core := range map[string]Core{
			"scalar":   scalar,
			"compiled": compiled,
		} {
			var gotR []Report
			s := NewSession(core, func(r Report) { gotR = append(gotR, r) })
			if core == Core(compiled) {
				s.SetTracer(frontierCheck{t, compiled})
			}
			chunks := randomPartition(r, input)
			if size > feedBlock {
				// An odd prefix, so that every block of the rest starts
				// mid-cycle on the strided geometries.
				cut := 1 + r.Intn(7)
				chunks = [][]byte{input[:cut], input[cut:]}
			}
			for _, chunk := range chunks {
				s.Feed(chunk)
			}
			s.Flush()
			SortReports(gotR)
			if len(gotR) != len(wantR) {
				t.Fatalf("trial %d %s: streamed %d reports, batch %d", trial, name, len(gotR), len(wantR))
			}
			for i := range gotR {
				if gotR[i] != wantR[i] {
					t.Fatalf("trial %d %s report %d: streamed %+v, batch %+v", trial, name, i, gotR[i], wantR[i])
				}
			}
			if gotS := s.Stats(); gotS != wantS {
				t.Fatalf("trial %d %s: streamed stats %+v, batch stats %+v", trial, name, gotS, wantS)
			}
		}
	}
}

// A session reused for back-to-back streams after Reset must behave as a
// fresh one: no enable/active state, carried sub-symbols, cycle parity or
// statistics may leak from the previous stream.
func TestSessionResetReuse(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		n := randomNFAAllGeometries(r)
		c, err := Compile(n)
		if err != nil {
			t.Fatal(err)
		}
		input := make([]byte, 1+r.Intn(80))
		for i := range input {
			input[i] = byte(r.Intn(256))
		}

		var got []Report
		s := c.NewSession(func(r Report) { got = append(got, r) })
		run := func() ([]Report, Stats) {
			got = nil
			for _, chunk := range randomPartition(r, input) {
				s.Feed(chunk)
			}
			s.Flush()
			SortReports(got)
			return got, s.Stats()
		}
		r1, s1 := run()
		// Leave the stream dirty mid-cycle before resetting: feed a prefix
		// without flushing so pending sub-symbols and active state exist.
		s.Reset()
		s.Feed(input[:len(input)/2])
		s.Reset()
		r2, s2 := run()
		if len(r1) != len(r2) || s1 != s2 {
			t.Fatalf("trial %d: reset reuse diverged: run1 %d reports %+v, run2 %d reports %+v",
				trial, len(r1), s1, len(r2), s2)
		}
		for i := range r1 {
			if r1[i] != r2[i] {
				t.Fatalf("trial %d report %d: run1 %+v, run2 %+v", trial, i, r1[i], r2[i])
			}
		}
	}
}

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
	if s.Cycles() != 0 {
		t.Fatalf("half-cycle feed ran %d cycles, want 0", s.Cycles())
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
