package sim

import (
	"testing"

	"impala/internal/bitvec"
)

// What the external tests, which draw their automata from simtest (it imports
// this package, so an internal test cannot), reach of the internals.

// The automata the kernel is tuned against, and the benchmarks' input.
var LowActivityNFA, HighActivityNFA, SparseActivityNFA, BenchInput = lowActivityNFA, highActivityNFA, sparseActivityNFA, benchInput

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
	if &enabled[0] != &e.enabled.Bits[0] || &active[0] != &e.Active()[0] {
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

// Pooled takes an engine from the form's pool, as Run does; Release returns
// one.
func (c *Compiled) Pooled() *CompiledEngine   { return c.pool.Get().(*CompiledEngine) }
func (c *Compiled) Release(e *CompiledEngine) { c.pool.Put(e) }

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
