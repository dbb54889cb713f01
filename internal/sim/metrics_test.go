package sim

import (
	"testing"

	"impala/internal/automata"
	"impala/internal/bitvec"
	"impala/internal/obs"
)

// withMetrics enables streaming metrics on a fresh registry for the test's
// duration, restoring the disabled default afterwards (other tests pin the
// disabled state's behavior).
func withMetrics(t *testing.T) *obs.Registry {
	t.Helper()
	reg := obs.NewRegistry()
	EnableMetrics(reg)
	t.Cleanup(func() { EnableMetrics(nil) })
	return reg
}

// Live counters must agree exactly with the session's own statistics: same
// bytes, cycles, reports; active-stream gauge follows open/flush/reset.
func TestSessionMetricsCounters(t *testing.T) {
	reg := withMetrics(t)
	n := automata.New(8, 1)
	n.AddLiteral("ab", automata.StartAllInput, 7)
	c, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}

	s := NewSession(c.NewEngine(), nil)
	snap := reg.Snapshot()
	if snap.Gauges["sim_active_streams"] != 1 {
		t.Fatalf("active streams = %d, want 1", snap.Gauges["sim_active_streams"])
	}
	input := []byte("xxabyyab")
	s.Feed(input[:3])
	s.Feed(input[3:])
	s.Flush()
	st := s.Stats()

	snap = reg.Snapshot()
	if got := snap.Counters["sim_bytes_fed_total"]; got != int64(len(input)) {
		t.Errorf("bytes_fed = %d, want %d", got, len(input))
	}
	if got := snap.Counters["sim_reports_total"]; got != int64(st.Reports) {
		t.Errorf("reports = %d, want %d", got, st.Reports)
	}
	if got := snap.Counters["sim_cycles_total"]; got != int64(st.Cycles) {
		t.Errorf("cycles = %d, want %d", got, st.Cycles)
	}
	if got := snap.Counters["sim_feed_calls_total"]; got != 2 {
		t.Errorf("feed_calls = %d, want 2", got)
	}
	if got := snap.Counters["sim_flushes_total"]; got != 1 {
		t.Errorf("flushes = %d, want 1", got)
	}
	if got := snap.Gauges["sim_active_streams"]; got != 0 {
		t.Errorf("active streams after flush = %d, want 0", got)
	}
	if got := snap.Histograms["sim_report_latency_ns"].Count; got < 1 {
		t.Errorf("report latency observations = %d, want >= 1", got)
	}
	if got := snap.Histograms["sim_feed_chunk_bytes"].Count; got != 2 {
		t.Errorf("chunk size observations = %d, want 2", got)
	}

	// Reset of a flushed session re-opens the stream — how a pooled core's
	// kept session counts each one-shot run.
	s.Reset()
	if got := reg.Snapshot().Gauges["sim_active_streams"]; got != 1 {
		t.Errorf("active streams after reset = %d, want 1", got)
	}
	if got := reg.Snapshot().Counters["sim_sessions_opened_total"]; got != 2 {
		t.Errorf("sessions opened after reset = %d, want 2", got)
	}
	s.Flush()
	if got := reg.Snapshot().Gauges["sim_active_streams"]; got != 0 {
		t.Errorf("active streams after second flush = %d, want 0", got)
	}
}

// Symbol accounting: a 4-bit automaton's core expands each byte into two
// nibbles, and the symbol counter reflects the expanded stream; a core that
// takes bytes is counted in bytes.
func TestSessionMetricsSubSymbols(t *testing.T) {
	reg := withMetrics(t)
	// Hand-built 4-bit automaton matching byte 0xAB (hi state A, lo state B)
	// — each input byte expands to two nibble sub-symbols.
	n4 := automata.New(4, 1)
	hi := n4.AddState(automata.State{
		Match: automata.MatchSet{automata.Rect{bitvec.ByteOf(0xA)}},
		Start: automata.StartAllInput,
	})
	lo := n4.AddState(automata.State{
		Match:  automata.MatchSet{automata.Rect{bitvec.ByteOf(0xB)}},
		Report: true,
	})
	n4.AddEdge(hi, lo)
	c, err := Compile(n4)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(c.NewEngine(), nil)
	s.Feed([]byte("abcd"))
	s.Flush()
	snap := reg.Snapshot()
	if got := snap.Counters["sim_subsymbols_total"]; got != 8 {
		t.Errorf("subsymbols = %d, want 8 (two nibbles per byte)", got)
	}
	if got := snap.Counters["sim_bytes_fed_total"]; got != 4 {
		t.Errorf("bytes = %d, want 4", got)
	}

	// The counter counts the symbols the core takes: a core that takes bytes
	// — a DFA walker whose DFAs step bytes, two a cycle here — takes the
	// input as it comes, whatever the automaton's sub-symbols.
	reg = withMetrics(t)
	s = NewSession(bytesCore{}, nil)
	s.Feed([]byte("abcde"))
	s.Flush()
	snap = reg.Snapshot()
	if got := snap.Counters["sim_subsymbols_total"]; got != 5 {
		t.Errorf("byte core: subsymbols = %d, want 5 (the bytes)", got)
	}
	if got := snap.Counters["sim_cycles_total"]; got != 3 {
		t.Errorf("byte core: cycles = %d, want 3 (two bytes a cycle, the last padded)", got)
	}

	// The kernel over a 4-bit automaton whose cycle is whole bytes — two
	// nibbles here, one byte — takes bytes too: a byte a cycle, not two
	// sub-symbols.
	n2 := automata.New(4, 2)
	n2.AddState(automata.State{
		Match: automata.MatchSet{automata.Rect{bitvec.ByteOf(0x6), bitvec.ByteOf(0x1)}},
		Start: automata.StartAllInput, Report: true,
	})
	c2, err := Compile(n2)
	if err != nil {
		t.Fatal(err)
	}
	reg = withMetrics(t)
	s = NewSession(c2.NewEngine(), nil)
	s.Feed([]byte("abcd"))
	s.Flush()
	snap = reg.Snapshot()
	if got := snap.Counters["sim_subsymbols_total"]; got != 4 {
		t.Errorf("byte-stepped kernel: subsymbols = %d, want 4 (the bytes)", got)
	}
	if got := snap.Counters["sim_cycles_total"]; got != 4 {
		t.Errorf("byte-stepped kernel: cycles = %d, want 4 (a byte a cycle)", got)
	}
	if got := snap.Counters["sim_reports_total"]; got != 1 {
		t.Errorf("byte-stepped kernel: reports = %d, want 1 (the 'a')", got)
	}
}

// bytesCore takes bytes, two a cycle, and steps no state.
type bytesCore struct{}

func (bytesCore) Geometry() (bits, stride int) { return 8, 2 }
func (bytesCore) ResetState()                  {}
func (bytesCore) StepBlock([]byte, int, int, ReportSink, Tracer) (int64, int64, int) {
	return 0, 0, 0
}

// The PR 2 guarantee must survive instrumentation: steady-state Feed stays
// allocation-free both with the default no-op registry and with live
// metrics enabled (all instruments are atomics; observing allocates
// nothing).
func TestSessionFeedZeroAllocInstrumented(t *testing.T) {
	n := automata.New(8, 1)
	n.AddLiteral("needle", automata.StartAllInput, 1)
	c, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	chunk := benchInput(1024)

	run := func(name string) {
		s := NewSession(c.NewEngine(), func(Report) {})
		s.Feed(chunk) // warm the sub-symbol scratch buffer
		if avg := testing.AllocsPerRun(50, func() { s.Feed(chunk) }); avg != 0 {
			t.Errorf("%s: steady-state Feed allocates %.1f objects/op, want 0", name, avg)
		}
	}

	EnableMetrics(nil)
	run("no-op registry (default)")

	reg := obs.NewRegistry()
	EnableMetrics(reg)
	defer EnableMetrics(nil)
	run("live registry")
	if reg.Snapshot().Counters["sim_feed_calls_total"] == 0 {
		t.Fatal("live registry saw no feeds — instrumentation not active")
	}
}
