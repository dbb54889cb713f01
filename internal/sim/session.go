// Streaming execution core. A Session separates the compile-once immutable
// artifact (the automaton, its Compiled form, or an arch.Machine
// configuration — anything exposing the Core step interface) from the
// per-stream mutable state: the enable/active bitsets live in the Core, the
// global cycle counter and the sub-symbol carry for chunk boundaries that
// do not align with a stride live here. Input arrives as arbitrary []byte
// chunks via Feed; reports are pushed into a caller-supplied ReportSink as
// they are produced instead of being accumulated in a slice, so steady-state
// Feed performs no allocation (all scratch buffers are owned by the
// session).
//
// Semantics are identical to the batch path: Feed executes every complete
// stride chunk of the data seen so far and carries the remainder (up to
// Stride-1 of the core's symbols — e.g. the odd nibble of an odd-length chunk
// on a 4-bit automaton, or the odd byte on a core that takes two bytes a
// cycle) into the next Feed; Flush runs the final zero-padded
// partial cycle, filtering reports whose consumed position would exceed the
// true stream length, exactly as the batch engines pad and filter their
// last cycle. The batch Run of every engine that returns ([]Report, Stats)
// is RunBatch over this type: on a fresh session for a one-off core, on a
// pooled session (Pool) for the one-shot entry points.
//
// The session talks to its core in blocks, not cycles: Feed unpacks at most
// feedBlock bytes into the core's symbols and hands every whole cycle of them
// to the core in one StepBlock call, so the dispatch, the sink and the
// statistics cost one call per 2 KiB of input and the core's cycle loop keeps
// its bookkeeping in registers from one cycle to the next. For a core whose
// symbols are bytes (Core.Geometry) the unpack is a copy.
package sim

import (
	"fmt"
	"sync"
	"time"
)

// ReportSink consumes reports as a session produces them: in cycle order,
// unsorted within a cycle (the batch wrappers sort afterwards; BitPos is
// nondecreasing across cycles because report offsets lie in [1, Stride]).
// A nil sink discards reports but still counts them in Stats.
type ReportSink func(Report)

// Core is the stepping half of an execution engine: the immutable
// configuration plus the enable/active working sets it carries between
// cycles. Engine (scalar), CompiledEngine (bit-parallel), the lockstep
// combinator over child cores, the scored lane (score.Engine), dfa.Core and
// the capsule-level arch.Machine session all implement it; Session drives
// any of them incrementally.
type Core interface {
	// Geometry returns the width and count of the symbols StepBlock consumes
	// per cycle: the automaton's (bits, stride), or (8, stride·bits/8) for a
	// core that takes its cycles' sub-symbols as whole bytes (a DFA walker
	// whose DFAs step bytes). The session hands it symbols of that width.
	Geometry() (bits, stride int)
	// ResetState clears all inter-cycle state (the previous-active set),
	// returning the core to the start-of-stream condition.
	ResetState()
	// StepBlock executes the len(subs)/stride consecutive cycles t0, t0+1, …
	// over subs — whole cycles only, stride symbols each — emitting
	// reports into sink in cycle order. limitBits >= 0 suppresses reports
	// whose BitPos exceeds it (the zero-padded final cycle, a block of one);
	// limitBits < 0 means no limit (a complete cycle: offsets in [1,Stride]
	// cannot overrun). It returns what Stats needs of the block — the
	// enabled- and active-state counts summed over its cycles and the
	// largest active count of any one cycle — rather than filling a
	// per-cycle buffer the caller would have to own. tracer may be nil;
	// cores without a whole-automaton state vector (the capsule-level
	// machine, the lockstep combinator) ignore it. Nothing is allocated.
	StepBlock(subs []byte, t0 int, limitBits int, sink ReportSink, tracer Tracer) (enabled, active int64, peak int)
}

// Session drives a Core incrementally over a chunked input stream. It is
// not safe for concurrent use; hold one session per stream (many sessions
// may share one immutable Compiled or arch.Machine).
type Session struct {
	core   Core
	sink   ReportSink
	tracer Tracer
	emit   ReportSink // counting wrapper around sink, built once
	// batch collects the reports of a runBatch in progress, appended to the
	// caller's buffer; between runs it is nil, so a pooled session pins no
	// finished run's reports.
	batch []Report

	bits, stride int

	// pending carries 0..stride-1 symbols whose cycle cannot run until
	// more data (or Flush) arrives — the odd-nibble (or odd-byte) parity of
	// chunk boundaries. subBuf is the reusable sub-symbol expansion scratch: it
	// holds pending plus one feedBlock of input at a time.
	pending []byte
	subBuf  []byte

	cycle   int   // completed cycles
	subsFed int64 // sub-symbols received (including pending)
	flushed bool

	totalActive, totalEnabled int64
	peakActive                int
	reports                   int
}

// NewSession prepares a streaming session over the core, resetting the
// core's inter-cycle state. sink may be nil to run for statistics only.
func NewSession(core Core, sink ReportSink) *Session {
	bits, stride := core.Geometry()
	s := &Session{
		core:    core,
		sink:    sink,
		bits:    bits,
		stride:  stride,
		pending: make([]byte, 0, stride),
	}
	s.emit = func(r Report) {
		s.reports++
		if s.sink != nil {
			s.sink(r)
		}
	}
	s.Reset()
	if m := streamMetricsPtr.Load(); m != nil {
		m.sessions.Inc()
		m.active.Inc()
	}
	return s
}

// SetTracer attaches a per-cycle activity tracer (may be nil).
func (s *Session) SetTracer(t Tracer) { s.tracer = t }

// feedBlock is how many input bytes Feed unpacks into sub-symbols and hands
// to the core at a time: the scratch stays a few KiB (and in cache) however
// long the chunk, where unpacking a whole 64 KiB body first grew a 128 KiB
// buffer from nothing on every one-shot request.
const feedBlock = 2048

// Feed consumes the next chunk of the stream, executing every cycle whose
// sub-symbols are complete and carrying the remainder. Chunks may be of any
// size, including empty. Steady-state calls perform no allocation.
func (s *Session) Feed(chunk []byte) {
	if s.flushed {
		panic("sim: Feed after Flush (Reset the session to start a new stream)")
	}
	m := streamMetricsPtr.Load()
	var t0 time.Time
	var cycles0, reports0 int
	if m != nil {
		t0 = time.Now()
		cycles0, reports0 = s.cycle, s.reports
	}
	added := int64(len(chunk)) * int64(8/s.bits)
	s.subsFed += added
	S := s.stride
	for block := chunk; len(block) > 0; {
		part := block[:min(len(block), feedBlock)]
		block = block[len(part):]
		if need := len(s.pending) + len(part)*(8/s.bits); cap(s.subBuf) < need {
			s.subBuf = make([]byte, 0, max(need, 2*cap(s.subBuf)))
		}
		buf := append(s.subBuf[:0], s.pending...)
		buf = AppendSubSymbols(buf, s.bits, part)
		full := len(buf) / S * S
		s.stepBlock(buf[:full], -1)
		s.pending = append(s.pending[:0], buf[full:]...)
	}
	if m != nil {
		m.feeds.Inc()
		m.bytes.Add(int64(len(chunk)))
		m.symbols.Add(added)
		m.cycles.Add(int64(s.cycle - cycles0))
		m.chunkSz.Observe(int64(len(chunk)))
		if nr := s.reports - reports0; nr > 0 {
			m.reports.Add(int64(nr))
			m.feedLat.Observe(time.Since(t0).Nanoseconds())
		}
	}
}

// Flush ends the stream: if a partial cycle is pending it runs zero-padded,
// with reports filtered to the true stream length (batch-identical
// semantics). Further Feed calls panic until Reset. Flush is idempotent.
func (s *Session) Flush() {
	if s.flushed {
		return
	}
	m := streamMetricsPtr.Load()
	var cycles0, reports0 int
	if m != nil {
		cycles0, reports0 = s.cycle, s.reports
	}
	if len(s.pending) > 0 {
		pad := s.pending
		for len(pad) < s.stride {
			pad = append(pad, 0)
		}
		s.stepBlock(pad, int(s.subsFed)*s.bits)
		s.pending = s.pending[:0]
	}
	s.flushed = true
	if m != nil {
		m.flushes.Inc()
		m.active.Dec()
		m.cycles.Add(int64(s.cycle - cycles0))
		if nr := s.reports - reports0; nr > 0 {
			m.reports.Add(int64(nr))
		}
	}
}

// Reset returns the session (and its core) to the start-of-stream state,
// clearing all carried sub-symbols, counters and statistics. The sink is
// retained.
func (s *Session) Reset() {
	if s.flushed {
		// A flushed session restarting is a new live stream.
		if m := streamMetricsPtr.Load(); m != nil {
			m.sessions.Inc()
			m.active.Inc()
		}
	}
	s.core.ResetState()
	s.pending = s.pending[:0]
	s.cycle = 0
	s.subsFed = 0
	s.flushed = false
	s.totalActive, s.totalEnabled = 0, 0
	s.peakActive = 0
	s.reports = 0
}

// Cycles returns the number of cycles executed so far.
func (s *Session) Cycles() int { return s.cycle }

// BytesFed returns the number of whole input bytes received so far.
func (s *Session) BytesFed() int64 { return s.subsFed * int64(s.bits) / 8 }

// Stats returns the activity statistics of the stream so far (final once
// Flush has run). The result is mergeable across sessions via Stats.Add.
func (s *Session) Stats() Stats {
	st := Stats{
		Cycles:       s.cycle,
		TotalActive:  s.totalActive,
		TotalEnabled: s.totalEnabled,
		PeakActive:   s.peakActive,
		Reports:      s.reports,
	}
	st.finalize()
	return st
}

// stepBlock runs the whole cycles of subs on the core and books them.
func (s *Session) stepBlock(subs []byte, limitBits int) {
	if len(subs) == 0 {
		return
	}
	ne, na, peak := s.core.StepBlock(subs, s.cycle, limitBits, s.emit, s.tracer)
	s.totalEnabled += ne
	s.totalActive += na
	s.peakActive = max(s.peakActive, peak)
	s.cycle += len(subs) / s.stride
}

// RunBatch runs core over input as one whole stream — a fresh session, Feed,
// Flush — and returns the reports in canonical order (SortReports) with the
// stream's statistics. chunk > 0 feeds the input in pieces of that many
// bytes instead of all at once; the result is the same. tracer may be nil.
func RunBatch(core Core, input []byte, chunk int, tracer Tracer) ([]Report, Stats) {
	return NewSession(core, nil).runBatch(nil, input, chunk, tracer)
}

// Pool is the pooled one-shot runner behind every form's Run: sessions, each
// over a core of its own and kept with it, shared by concurrent callers of
// one immutable form. A pooled run into a buffer that fits allocates nothing,
// whatever it reports, and an idle pooled session holds nothing of the run it
// finished — runBatch hands the caller's buffer back and lets go of the
// tracer, and a core lets go of the sink it was stepped with at the end of
// each block.
type Pool struct{ sessions sync.Pool }

// NewPool returns a runner over the cores newCore makes, one per pooled
// session.
func NewPool(newCore func() Core) *Pool {
	p := &Pool{}
	p.sessions.New = func() any { return NewSession(newCore(), nil) }
	return p
}

// Run is AppendRun(nil, input).
func (p *Pool) Run(input []byte) ([]Report, Stats) { return p.AppendRun(nil, input) }

// AppendRun executes input as one whole stream on a pooled session, appends
// its reports to dst in canonical order (RunBatch) and returns the extended
// slice with the stream's statistics; dst's own rows are left as they are.
// It is safe for concurrent use.
func (p *Pool) AppendRun(dst []Report, input []byte) ([]Report, Stats) {
	s := p.sessions.Get().(*Session)
	r, st := s.runBatch(dst, input, 0, nil)
	p.sessions.Put(s)
	return r, st
}

// runBatch is RunBatch on a session made with no sink of its own, whatever
// it ran before, appending to dst: a Pool keeps one with each core, and a run
// into a dst with room for its reports then allocates nothing.
func (s *Session) runBatch(dst []Report, input []byte, chunk int, tracer Tracer) ([]Report, Stats) {
	if s.sink == nil {
		s.sink = func(r Report) {
			// Past 1,024 reports the slice doubles where append would grow it
			// by a factor falling toward 1.25: a 64 KiB run reporting on most
			// cycles into no buffer then makes 19 allocations, not 29.
			if n := len(s.batch); n == cap(s.batch) && n >= 1024 {
				s.batch = append(make([]Report, 0, 2*n), s.batch...)
			}
			s.batch = append(s.batch, r)
		}
	}
	s.batch, s.tracer = dst, tracer
	s.Reset()
	if chunk <= 0 {
		chunk = len(input)
	}
	for len(input) > chunk {
		s.Feed(input[:chunk])
		input = input[chunk:]
	}
	s.Feed(input)
	s.Flush()
	reports := s.batch
	s.batch, s.tracer = nil, nil
	SortReports(reports[len(dst):])
	return reports, s.Stats()
}

// AppendSubSymbols appends the sub-symbol expansion of input to dst and
// returns it — the allocation-free form of SubSymbols used by the streaming
// path (identity for 8-bit automata, high-first nibbles for 4-bit, crumbs
// for 2-bit).
func AppendSubSymbols(dst []byte, bits int, input []byte) []byte {
	switch bits {
	case 8:
		return append(dst, input...)
	case 4:
		for _, b := range input {
			dst = append(dst, b>>4, b&0x0F)
		}
		return dst
	case 2:
		for _, b := range input {
			dst = append(dst, b>>6, (b>>4)&3, (b>>2)&3, b&3)
		}
		return dst
	default:
		panic(fmt.Sprintf("sim: unsupported bits %d", bits))
	}
}
