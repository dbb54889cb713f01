package score

import (
	"impala/internal/sim"
)

// acquireEngine returns a pooled (or fresh) engine; releaseEngine clears
// its per-run hooks and returns it.
func (c *Compiled) acquireEngine() *Engine {
	return c.pool.Get().(*Engine)
}

func (c *Compiled) releaseEngine(e *Engine) {
	e.onScore, e.sink = nil, nil
	e.rejects, e.scored = 0, 0
	c.pool.Put(e)
}

// Run executes the scored automaton over input on a pooled engine and
// returns the threshold-clearing reports sorted by (BitPos, Code, State)
// with their scores, plus activity statistics. Safe for concurrent use.
func (c *Compiled) Run(input []byte) ([]Report, sim.Stats) {
	e := c.acquireEngine()
	var reports []Report
	e.onScore = func(r Report) { reports = append(reports, r) }
	if e.batch == nil {
		e.batch = sim.NewSession(e, nil)
	}
	s := e.batch
	s.Reset()
	s.Feed(input)
	s.Flush()
	st := s.Stats()
	e.drainMetrics(int64(len(input)))
	c.releaseEngine(e)
	SortReports(reports)
	return reports, st
}

// Session drives a scored engine over a chunked stream: a sim.Session with
// the scored sink attached, so streaming scored execution has exactly the
// binary path's chunk-carry and flush semantics.
type Session struct {
	*sim.Session
	e *Engine
}

// NewSession returns a streaming scored session. sink receives every
// threshold-clearing report with its score; it may be nil to run for
// statistics only. Many sessions may run concurrently over one Compiled.
func (c *Compiled) NewSession(sink Sink) *Session {
	e := c.NewEngine()
	e.onScore = sink
	return &Session{Session: sim.NewSession(e, nil), e: e}
}

// Feed consumes the next chunk of the stream (see sim.Session.Feed) and
// accounts the scored bytes.
func (s *Session) Feed(chunk []byte) {
	s.Session.Feed(chunk)
	if m := scoreMetricsPtr.Load(); m != nil {
		m.bytes.Add(int64(len(chunk)))
	}
}

// Flush ends the stream (see sim.Session.Flush) and drains the engine's
// report/reject counts into the score metrics. Idempotent.
func (s *Session) Flush() {
	s.Session.Flush()
	s.e.drainMetrics(0)
}

// drainMetrics publishes and clears the engine's plain counters; bytes > 0
// additionally accounts one-shot input (streaming sessions account bytes
// per Feed instead). One nil-check — the disabled state costs nothing.
func (e *Engine) drainMetrics(bytes int64) {
	m := scoreMetricsPtr.Load()
	if m == nil {
		e.rejects, e.scored = 0, 0
		return
	}
	if bytes > 0 {
		m.bytes.Add(bytes)
	}
	if e.scored > 0 {
		m.reports.Add(e.scored)
	}
	if e.rejects > 0 {
		m.rejects.Add(e.rejects)
	}
	e.rejects, e.scored = 0, 0
}
