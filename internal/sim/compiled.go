package sim

import (
	"math/bits"
	"sync"

	"impala/internal/automata"
	"impala/internal/bitvec"
)

// Compiled is the bit-parallel compiled form of an automaton — the software
// rendering of the paper's two-phase in-memory datapath. Where the scalar
// Engine dispatches per enabled state, Compiled precomputes:
//
//   - per-position symbol mask tables: masks[p][v] is the bit-vector of
//     states whose match rule accepts sub-symbol v at stride position p.
//     The state-match phase is then S word-wise ANDs over the whole state
//     vector — exactly the hardware's one-column-read-per-dimension
//     followed by the capsule AND gate, evaluated for every state at once.
//   - a dense successor matrix (one row per state): the state-transition
//     phase ORs the row of each active state into the enable vector via
//     bitvec.Matrix.OrRowInto — the wired-OR of successor rows on the
//     interconnect bit-lines.
//
// States whose MatchSet is not position-decomposable (a union of rects that
// is not itself a cartesian product) cannot be expressed as one column per
// dimension; they are kept on a small residual list and matched scalar per
// cycle, exactly as the hardware would need a split state per rect.
//
// A Compiled value is immutable after Compile and safe to share across
// goroutines; per-run mutable state lives in CompiledEngine.
type Compiled struct {
	nfa *automata.NFA

	// masks[p][v]: states accepting sub-symbol v at stride position p.
	// Residual states have zero bits in every mask.
	masks [][]bitvec.Words
	// residual lists non-decomposable states, ascending; residualEnable is
	// their membership mask.
	residual []automata.StateID

	// succ row i holds the enable mask of state i's successors.
	succ *bitvec.Matrix

	// Enable-source masks and fast-path flags (skip the OR when a class of
	// start states does not exist at all).
	always, startOfData, even bitvec.Words
	anyStartOfData, anyEven   bool

	// reportingMask gates the report loop: cycles where
	// active ∧ reportingMask = 0 skip report handling entirely.
	reportingMask bitvec.Words
	anyReports    bool

	// pool recycles engines (per-stream buffers) across RunParallel
	// segments and other short-lived executions of this compiled form.
	pool sync.Pool
}

// Compile precompiles the automaton into its bit-parallel form. The
// automaton must validate; it must not be mutated while the compiled form
// is in use (the compiled form aliases it for residual matching and report
// metadata).
func Compile(n *automata.NFA) (*Compiled, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	ns := n.NumStates()
	S := n.Stride
	dom := automata.DomainSize(n.Bits)

	c := &Compiled{
		nfa:           n,
		succ:          bitvec.NewMatrix(ns, ns),
		always:        bitvec.NewWords(ns),
		startOfData:   bitvec.NewWords(ns),
		even:          bitvec.NewWords(ns),
		reportingMask: bitvec.NewWords(ns),
	}
	c.masks = make([][]bitvec.Words, S)
	for p := range c.masks {
		c.masks[p] = make([]bitvec.Words, dom)
		for v := range c.masks[p] {
			c.masks[p][v] = bitvec.NewWords(ns)
		}
	}

	for i := range n.States {
		s := &n.States[i]
		for _, t := range s.Out {
			c.succ.Set(i, int(t))
		}
		switch s.Start {
		case automata.StartAllInput:
			c.always.Set(i)
		case automata.StartOfData:
			c.startOfData.Set(i)
			c.anyStartOfData = true
		case automata.StartEven:
			c.even.Set(i)
			c.anyEven = true
		}
		if s.Report {
			c.reportingMask.Set(i)
			c.anyReports = true
		}
		if dims, ok := decompose(s.Match, S); ok {
			for p := 0; p < S; p++ {
				for _, v := range dims[p].Values() {
					c.masks[p][v].Set(i)
				}
			}
		} else {
			c.residual = append(c.residual, automata.StateID(i))
		}
	}
	// Warm the successor matrix's row-extent cache now, while compilation is
	// still single-threaded: the Compiled form is shared across RunParallel
	// workers, which must only read it.
	c.succ.OrRowsInto(nil, nil)
	c.pool.New = func() any { return c.NewEngine() }
	return c, nil
}

// acquireEngine returns a pooled (or fresh) engine for a short-lived
// execution; releaseEngine returns it. The engine comes with default
// semantics (anchors enabled); callers adjust per use.
func (c *Compiled) acquireEngine() *CompiledEngine {
	return c.pool.Get().(*CompiledEngine)
}

func (c *Compiled) releaseEngine(e *CompiledEngine) {
	e.anchors = true
	c.pool.Put(e)
}

// decompose returns per-position symbol sets D with m = D[0]×…×D[S-1] when
// the match set is such a cartesian product (position-decomposable), which
// is exactly the shape one capsule's per-dimension columns can express. A
// single rect is trivially a product; a union of rects is one iff it equals
// the product of its per-position projections.
func decompose(m automata.MatchSet, S int) (automata.Rect, bool) {
	nonEmpty := make(automata.MatchSet, 0, len(m))
	for _, r := range m {
		if !r.Empty() {
			nonEmpty = append(nonEmpty, r)
		}
	}
	if len(nonEmpty) == 1 {
		return nonEmpty[0], true
	}
	prod := make(automata.Rect, S)
	for p := range prod {
		var u bitvec.ByteSet
		for _, r := range nonEmpty {
			u = u.Union(r[p])
		}
		prod[p] = u
	}
	// m ⊆ product holds by construction; m is decomposable iff product ⊆ m.
	if (automata.MatchSet{prod}).SubsetOf(nonEmpty) {
		return prod, true
	}
	return nil, false
}

// NFA returns the automaton this form was compiled from.
func (c *Compiled) NFA() *automata.NFA { return c.nfa }

// ResidualStates returns the number of states matched on the scalar
// fallback path (non-position-decomposable match sets).
func (c *Compiled) ResidualStates() int { return len(c.residual) }

// CompiledEngine executes a shared Compiled form over input streams. It
// owns only per-stream buffers, so creating one per goroutine is cheap; it
// implements the Core step interface and is reusable across runs but not
// safe for concurrent use.
type CompiledEngine struct {
	c                           *Compiled
	enabled, active, prevActive bitvec.Words
	// anchors=false demotes start-of-data states to plain states by
	// skipping their enable OR on cycle 0 — used by RunParallel for
	// segments that do not begin at the true start of the stream,
	// replacing the per-worker NFA clone the scalar path once used.
	anchors bool
	// lane, when non-nil, runs between the match phase and the report gate.
	lane func(t int)
}

// NewEngine allocates per-stream state for executing the compiled
// automaton.
func (c *Compiled) NewEngine() *CompiledEngine {
	ns := c.nfa.NumStates()
	return &CompiledEngine{
		c:          c,
		enabled:    bitvec.NewWords(ns),
		active:     bitvec.NewWords(ns),
		prevActive: bitvec.NewWords(ns),
		anchors:    true,
	}
}

// NewSession returns a streaming session over the compiled form. Many
// sessions may run concurrently over one Compiled; each owns its buffers.
func (c *Compiled) NewSession(sink ReportSink) *Session {
	return NewSession(c.NewEngine(), sink)
}

// Run executes the compiled automaton over input on a pooled engine and
// returns the sorted reports and stats. It is safe for concurrent use —
// the one-shot entry point a server calls per request without paying a
// fresh engine allocation in steady state.
func (c *Compiled) Run(input []byte) ([]Report, Stats) {
	e := c.acquireEngine()
	r, s := e.Run(input, nil)
	c.releaseEngine(e)
	return r, s
}

// Geometry implements Core.
func (e *CompiledEngine) Geometry() (bits, stride int) { return e.c.nfa.Bits, e.c.nfa.Stride }

// ResetState implements Core: it clears the inter-cycle active set.
func (e *CompiledEngine) ResetState() { e.prevActive.ClearAll() }

// SetLane attaches a lane beside the kernel: every cycle, between the
// state-match phase and the report gate, StepCycle calls lane(t), which may
// read Active, PrevActive and StartEnabled and decide what the sink it
// passed to StepCycle lets through (internal/score's max-plus pass rides
// here). nil detaches it.
func (e *CompiledEngine) SetLane(lane func(t int)) { e.lane = lane }

// StepCycle implements Core: one cycle of the bit-parallel datapath over
// exactly Stride sub-symbols. The phases stay in one function body: split
// into a method per phase the same loops measured 8–10% slower per byte on
// the Snort automaton.
func (e *CompiledEngine) StepCycle(chunk []byte, t int, limitBits int, sink ReportSink, tracer Tracer) (int, int) {
	c := e.c
	n := c.nfa
	enabled, active, prev := e.enabled, e.active, e.prevActive

	// State-transition phase (from previous cycle): the enable vector is
	// the OR of the start-enable masks due this cycle and the successor
	// rows of every previously active state.
	enabled.CopyFrom(c.always)
	if e.anchors && t == 0 && c.anyStartOfData {
		c.startOfData.OrInto(enabled)
	}
	if t%2 == 0 && c.anyEven {
		c.even.OrInto(enabled)
	}
	c.succ.OrRowsInto(prev, enabled)

	// State-match phase: active = enabled ∧ mask[0][chunk[0]] ∧ … ∧
	// mask[S-1][chunk[S-1]] — S word-wise ANDs across all states.
	m0 := c.masks[0][chunk[0]][:len(active)]
	en := enabled[:len(active)]
	for w := range active {
		active[w] = en[w] & m0[w]
	}
	for p := 1; p < n.Stride; p++ {
		mp := c.masks[p][chunk[p]][:len(active)]
		for w := range active {
			active[w] &= mp[w]
		}
	}
	// Residual scalar path: non-decomposable match sets.
	for _, id := range c.residual {
		if enabled.Get(int(id)) && n.States[id].Match.Has(chunk) {
			active.Set(int(id))
		}
	}

	if e.lane != nil {
		e.lane(t)
	}

	// Reporting: word-level gate, then per-bit only on reporter words.
	if c.anyReports {
		base := t * n.Stride
		for w, word := range active {
			word &= c.reportingMask[w]
			for word != 0 {
				i := w<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				s := &n.States[i]
				bitPos := (base + s.ReportOffset) * n.Bits
				if limitBits < 0 || bitPos <= limitBits {
					sink(Report{BitPos: bitPos, Code: s.ReportCode, State: automata.StateID(i)})
				}
			}
		}
	}

	na, ne := active.Count(), enabled.Count()
	if tracer != nil {
		tracer.OnCycle(t, enabled, active)
	}
	e.prevActive, e.active = active, prev
	return ne, na
}

// Active returns the active set of the cycle in progress and PrevActive the
// previous cycle's, for a lane (valid only inside the SetLane callback);
// both alias the engine's buffers and must not be retained or written.
func (e *CompiledEngine) Active() bitvec.Words     { return e.active }
func (e *CompiledEngine) PrevActive() bitvec.Words { return e.prevActive }

// StartEnabled reports whether state i is enabled as a start candidate at
// cycle t, independent of any predecessor.
func (e *CompiledEngine) StartEnabled(i, t int) bool {
	c := e.c
	return c.always.Get(i) ||
		(t == 0 && e.anchors && c.startOfData.Get(i)) ||
		(t%2 == 0 && c.even.Get(i))
}

// Run executes the compiled automaton over input and returns all reports
// sorted by (BitPos, Code, State) plus activity statistics. tracer may be
// nil. Reports and statistics are identical to the scalar Engine's.
func (e *CompiledEngine) Run(input []byte, tracer Tracer) ([]Report, Stats) {
	return RunBatch(e, input, 0, tracer)
}

// runSegment is Run with the anchored-start behaviour of a mid-stream
// RunParallel segment (anchors fire only when the segment begins the true
// stream). The engine's default anchor semantics are restored afterwards.
func (e *CompiledEngine) runSegment(input []byte, anchors bool) ([]Report, Stats) {
	e.anchors = anchors
	r, s := e.Run(input, nil)
	e.anchors = true
	return r, s
}
