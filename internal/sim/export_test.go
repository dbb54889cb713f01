package sim

import (
	"slices"
	"testing"

	"impala/internal/automata"
	"impala/internal/bitvec"
)

// What the external tests, which draw their automata from simtest (it imports
// this package, so an internal test cannot), reach of the internals.

// The automata the kernel is tuned against, and the benchmarks' input.
var LowActivityNFA, HighActivityNFA, SparseActivityNFA, BenchInput = lowActivityNFA, highActivityNFA, sparseActivityNFA, benchInput

// LooksUp reports whether the kernel looks its start vectors up (and skips
// quiescent cycles): whether both stable start vectors keep their images.
func (c *Compiled) LooksUp() bool { return c.startOdd.pair != nil && c.startEven.pair != nil }

// StartsDiffer reports whether the odd and the even start vector differ.
func (c *Compiled) StartsDiffer() bool { return c.startOdd != c.startEven }

// Residual reports whether state id is matched on the residual path.
func (c *Compiled) Residual(id int) bool { return slices.Contains(c.residual, automata.StateID(id)) }

// Rowed reports whether the cycle in progress has ORed successor rows into
// the enable vector (valid inside a lane).
func (e *CompiledEngine) Rowed() bool { return e.touched.Sum.Any() }

// FrontierCheck is a Tracer pinning what the word-sparse kernel promises
// after every cycle: each vector is dense-valid under its summary (a word the
// summary does not name is zero), the vectors the tracer is handed are the
// engine's own, and outside the words successor rows touched the enable
// vector is exactly the cycle's start vector.
type FrontierCheck struct {
	T *testing.T
	E *CompiledEngine
}

func (f FrontierCheck) OnCycle(cycle int, enabled, active bitvec.Words) {
	f.T.Helper()
	e := f.E
	if &enabled[0] != &e.enabled.Bits[0] || &active[0] != &e.ActiveSet().Bits[0] {
		f.T.Fatalf("cycle %d: tracer was not handed the engine's vectors", cycle)
	}
	f.Consistent(cycle)
	start := e.startFor(cycle)
	for w, x := range enabled {
		if e.touched.Sum[w>>6]>>(uint(w)&63)&1 == 0 && x != start.Bits[w] {
			f.T.Fatalf("cycle %d: untouched enable word %d = %#x, start vector %#x", cycle, w, x, start.Bits[w])
		}
	}
}

// Consistent fails the test if a vector of the engine holds a non-zero word
// its summary does not name.
func (f FrontierCheck) Consistent(cycle int) {
	f.T.Helper()
	for name, v := range map[string]bitvec.Frontier{
		"enabled": f.E.enabled, "active": f.E.act[f.E.cur&1], "previous active": f.E.act[f.E.cur&1^1],
	} {
		for w, x := range v.Bits {
			if x != 0 && v.Sum[w>>6]>>(uint(w)&63)&1 == 0 {
				f.T.Fatalf("cycle %d: %s word %d = %#x lies outside its summary", cycle, name, w, x)
			}
		}
	}
}

// InOrder is a FrontierCheck that also pins the tracer's contract under
// block stepping: every cycle of the stream exactly once, in order, whatever
// blocks the stream was stepped in. Next is the cycle it expects.
type InOrder struct {
	FrontierCheck
	Next int
}

func (o *InOrder) OnCycle(cycle int, enabled, active bitvec.Words) {
	o.T.Helper()
	if cycle != o.Next {
		o.T.Fatalf("tracer shown cycle %d, want cycle %d", cycle, o.Next)
	}
	o.Next++
	o.FrontierCheck.OnCycle(cycle, enabled, active)
}

// SummaryWords is how many words the summaries of the engine's vectors span.
func (e *CompiledEngine) SummaryWords() int { return len(e.enabled.Sum) }

// Pooled takes a session from the form's pool, as Run does, with its engine;
// Release returns one, and RunPooled is a run on one, as Run makes it.
func (c *Compiled) Pooled() (*Session, *CompiledEngine) {
	s := c.pool.sessions.Get().(*Session)
	return s, s.core.(*CompiledEngine)
}
func (c *Compiled) Release(s *Session) { c.pool.sessions.Put(s) }
func (s *Session) RunPooled(input []byte, tracer Tracer) ([]Report, Stats) {
	return s.runBatch(nil, input, 0, tracer)
}

// Idle reports whether every vector of the engine, and every summary, is
// empty.
func (e *CompiledEngine) Idle() bool {
	for _, v := range []bitvec.Frontier{e.enabled, e.act[0], e.act[1], e.touched} {
		if v.Bits.Any() || v.Sum.Any() {
			return false
		}
	}
	return true
}
