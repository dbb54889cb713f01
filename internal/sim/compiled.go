package sim

import (
	"math/bits"

	"impala/internal/automata"
	"impala/internal/bitvec"
)

// Compiled is the bit-parallel compiled form of an automaton — the software
// rendering of the paper's two-phase in-memory datapath. Where the scalar
// Engine dispatches per enabled state, Compiled precomputes:
//
//   - per-position symbol mask tables: for the q-th symbol of a cycle and
//     its class c, the bit-vector of states whose match rule accepts the
//     symbols of class c there. A cycle that is whole bytes takes bytes, one
//     table per byte indexed by the byte's joint class
//     (automata.ByteClassesOf), so the state-match phase is bits·S/8
//     word-wise ANDs — two at 4-bit × 4, where the paper's capsule reads
//     four nibble columns; any other cycle takes its S sub-symbols, each its
//     own class. Either is the hardware's one-column-read-per-dimension
//     followed by the capsule AND gate, evaluated for 64 states at once.
//   - successor rows in CSR form (per state, the non-zero words of its
//     enable mask): the state-transition phase ORs the row of each active
//     state into the enable vector via bitvec.CSR.OrRowsInto — the wired-OR
//     of successor rows on the interconnect bit-lines, at a cost and a
//     footprint proportional to the configured switch points.
//   - the three start-enable vectors a cycle can need (first cycle of a
//     stream, even cycles, odd cycles), each with the summary of its
//     non-zero words and its size, and for the even and odd ones the class
//     tuples some start state matches: a cycle that follows a cycle with
//     nothing active, on a tuple no start state matches, enables the start
//     vector and activates nothing, so the engine skips it.
//
// Everything a cycle touches is indexed by word, and the engine visits only
// the words a summary names (see CompiledEngine), so a cycle costs its live
// words, not the automaton's size — as only the blocks of the switch
// hierarchy that hold an active state drive their rows.
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

	// A cycle is units symbols of unitBits each: bytes when it is whole
	// bytes, its sub-symbols otherwise.
	unitBits, units int
	// classOf[q][x] is the class of symbol x at the cycle's q-th symbol:
	// a byte's joint class, or the sub-symbol itself.
	classOf [][256]uint8
	// masks[q][c*words+w] holds, for the 64 states of word w, which accept
	// the symbols of class c at the cycle's q-th symbol: a class's row of
	// words is one run, which a cycle reads at its live words. Residual
	// states have zero bits in every mask. classes is the most classes of
	// any symbol rounded up to whole words: the radix of a cycle's class
	// tuple (startVector.admits), so a first class's tuples are whole words.
	masks          [][]uint64
	classes, words int
	// residual lists non-decomposable states, ascending.
	residual []automata.StateID

	// succ row i holds the enable mask of state i's successors.
	succ *bitvec.CSR

	// Start-enable vectors by cycle class: odd cycles enable the all-input
	// starts, even cycles add the even starts, and cycle 0 of a stream adds
	// the start-of-data states. A class that adds nothing aliases the one
	// below it.
	startOdd, startEven, startFirst *startVector

	// reporting gates the report loop: cycles where active ∧ reporting = 0
	// skip report handling entirely.
	reporting bitvec.Words

	// pool recycles engines (per-stream buffers) and their sessions across
	// the concurrent one-shot Run calls on this compiled form.
	pool *Pool
}

// Compile precompiles the automaton into its bit-parallel form, in time and
// space O(states + edges + stride·alphabet·states/64). The automaton must
// validate; it must not be mutated while the compiled form is in use (the
// compiled form aliases it for residual matching and report metadata).
func Compile(n *automata.NFA) (*Compiled, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return CompileValidated(n), nil
}

// CompileValidated is Compile for an automaton the caller has validated and
// not changed since, so that a machine's load path, which arch.Check has
// validated it on, does not walk every state's rects once more.
func CompileValidated(n *automata.NFA) *Compiled {
	ns := n.NumStates()
	S := n.Stride
	dom := automata.DomainSize(n.Bits)
	nw := (ns + 63) / 64

	c := &Compiled{
		nfa:       n,
		unitBits:  n.Bits,
		units:     S,
		words:     nw,
		startOdd:  &startVector{Frontier: bitvec.NewFrontier(ns)},
		reporting: bitvec.NewWords(ns),
	}
	// val[(p*dom+v)*nw+w] holds which states of word w accept sub-symbol v
	// at stride position p: the masks themselves when a cycle takes
	// sub-symbols, what a byte's class is found from otherwise.
	val := make([]uint64, S*dom*nw)
	succ := bitvec.NewCSRBuilder(ns, ns)
	var even, anchored []int
	for i := range n.States {
		s := &n.States[i]
		for _, t := range s.Out {
			succ.Set(int(t))
		}
		succ.EndRow()
		switch s.Start {
		case automata.StartAllInput:
			c.startOdd.add(i)
		case automata.StartOfData:
			anchored = append(anchored, i)
		case automata.StartEven:
			even = append(even, i)
		}
		if s.Report {
			c.reporting.Set(i)
		}
		if dims, ok := decompose(s.Match, S); ok {
			w, bit := i>>6, uint64(1)<<(uint(i)&63)
			for p := 0; p < S; p++ {
				for k, word := range dims[p] {
					for ; word != 0; word &= word - 1 {
						v := k<<6 | bits.TrailingZeros64(word)
						val[(p*dom+v)*nw+w] |= bit
					}
				}
			}
		} else {
			c.residual = append(c.residual, automata.StateID(i))
		}
	}
	if n.Bits*S%8 == 0 {
		bc := automata.ByteClassesOf(n.Bits, S, nw, val)
		c.unitBits, c.units, c.classOf, c.masks = 8, len(bc.Of), bc.Of, bc.Cols
		for _, r := range bc.Rep {
			c.classes = max(c.classes, len(r))
		}
		c.classes = (c.classes + 63) &^ 63
	} else {
		c.classOf, c.classes, c.masks = make([][256]uint8, S), (dom+63)&^63, make([][]uint64, S)
		for p := range S {
			copy(c.classOf[p][:], identity[:])
			c.masks[p] = val[p*dom*nw:][:dom*nw]
		}
	}
	c.succ = succ.Build()
	c.startEven = c.startOdd.with(ns, even)
	c.startFirst = c.startEven.with(ns, anchored)
	c.admit(c.startOdd)
	if c.startEven != c.startOdd {
		c.admit(c.startEven)
	}
	c.pool = NewPool(func() Core { return c.NewEngine() })
	return c
}

// identity maps every symbol to itself: the classes of a cycle that takes
// sub-symbols.
var identity = func() (id [256]uint8) {
	for v := range id {
		id[v] = uint8(v)
	}
	return id
}()

// maxTuples bounds the class tuples a start vector keeps a bit for: a cycle
// whose tuples are more is never skipped. As the radix is whole words, that
// is every cycle of three symbols or more (4-bit × 8, 8-bit × 4).
const maxTuples = 1 << 16

// admit sets v.admits: a bit per class tuple of a cycle of one or two
// symbols, the first symbol's class times c.classes plus the second's, set
// when some state of v matches the tuple's symbols. A first class's
// admitted second classes are a run of words, the same for every first
// class that leaves a start word the same states. A vector that holds a
// residual state, which no mask names, keeps none.
func (c *Compiled) admit(v *startVector) {
	tuples := c.classes
	if c.units == 2 {
		tuples *= c.classes
	}
	if c.units > 2 || tuples > maxTuples {
		return
	}
	for _, id := range c.residual {
		if v.Bits.Get(int(id)) {
			return
		}
	}
	v.admits = bitvec.NewWords(tuples)
	first, last, rw := c.masks[0], c.masks[c.units-1], c.classes/64
	for sw, s := range v.Sum {
		for ; s != 0; s &= s - 1 {
			w := sw<<6 | bits.TrailingZeros64(s)
			var seen uint64
			var row [4]uint64 // the last symbol's classes the states seen match
			for k0 := 0; k0*c.words < len(first); k0++ {
				x := v.Bits[w]
				if c.units == 2 {
					x &= first[k0*c.words+w]
				}
				if x == 0 {
					continue
				}
				if x != seen {
					seen, row = x, [4]uint64{}
					for k1 := 0; k1*c.words < len(last); k1++ {
						if x&last[k1*c.words+w] != 0 {
							row[k1>>6] |= 1 << (k1 & 63)
						}
					}
				}
				for i, a := range row[:rw] {
					v.admits[k0*rw+i] |= a
				}
				if c.units == 1 {
					break
				}
			}
		}
	}
}

// startVector is the set of states enabled on a class of cycles whatever
// the previous cycle left active, with its size.
type startVector struct {
	bitvec.Frontier
	count int
	// admits has a bit per class tuple of a cycle, set when some state of
	// the vector matches the tuple (Compiled.admit); nil when the tuples are
	// too many to keep, or on the first cycle's vector, which no cycle skips.
	admits bitvec.Words
}

func (v *startVector) add(i int) {
	v.Set(i)
	v.count++
}

// with returns v with the given states added — v itself when there are none
// to add.
func (v *startVector) with(ns int, states []int) *startVector {
	if len(states) == 0 {
		return v
	}
	g := &startVector{Frontier: bitvec.NewFrontier(ns), count: v.count}
	copy(g.Bits, v.Bits)
	copy(g.Sum, v.Sum)
	for _, i := range states {
		g.add(i)
	}
	return g
}

// decompose returns per-position symbol sets D with m = D[0]×…×D[S-1] when
// the match set is such a cartesian product (position-decomposable), which
// is exactly the shape one capsule's per-dimension columns can express. A
// single rect is trivially a product; a union of rects is one iff it equals
// the product of its per-position projections.
func decompose(m automata.MatchSet, S int) (automata.Rect, bool) {
	// The common case, one non-empty rect, allocates nothing.
	var lone automata.Rect
	count := 0
	for _, r := range m {
		if !r.Empty() {
			lone = r
			count++
		}
	}
	if count == 1 {
		return lone, true
	}
	nonEmpty := make(automata.MatchSet, 0, len(m))
	for _, r := range m {
		if !r.Empty() {
			nonEmpty = append(nonEmpty, r)
		}
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
//
// The state vectors are bitvec.Frontiers: each stays a valid dense
// bit-vector (every word its summary does not name is zero), which is all a
// lane or a Tracer may rely on, while the kernel itself reads and writes
// only summary-named words.
type CompiledEngine struct {
	c *Compiled
	// enabled is the enable vector; act holds the active vectors of the
	// cycle in progress, act[cur], and of the one before it.
	enabled bitvec.Frontier
	act     [2]bitvec.Frontier
	cur     int
	// prevCount is the number of states the previous cycle left active.
	prevCount int
	// Between cycles enabled holds exactly the start vector seeded. Within a
	// cycle touched names the words successor rows ORed into, and the cycle
	// ends by putting those few words back — so no cycle rebuilds the vector.
	// touched shares enabled's bits and has a summary of its own.
	seeded  *startVector
	touched bitvec.Frontier
	// lane, when non-nil, runs between the match phase and the report gate.
	lane func(t int)
	// off holds a cycle's mask offsets when it takes more than two symbols,
	// and sym a residual state's sub-symbols when it takes bytes.
	off []int
	sym []byte
}

// NewEngine allocates per-stream state for executing the compiled
// automaton: the vectors and their summaries share one allocation.
func (c *Compiled) NewEngine() *CompiledEngine {
	ns := c.nfa.NumStates()
	e := &CompiledEngine{c: c}
	buf := make([]uint64, 3*bitvec.FrontierWords(ns)+len(c.startOdd.Sum))
	e.enabled, buf = bitvec.CarveFrontier(buf, ns)
	e.act[0], buf = bitvec.CarveFrontier(buf, ns)
	e.act[1], buf = bitvec.CarveFrontier(buf, ns)
	e.touched = bitvec.Frontier{Bits: e.enabled.Bits, Sum: buf}
	if c.units > 2 {
		e.off = make([]int, c.units)
	}
	if len(c.residual) != 0 && c.unitBits != c.nfa.Bits {
		e.sym = make([]byte, 0, c.nfa.Stride)
	}
	return e
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
func (c *Compiled) Run(input []byte) ([]Report, Stats) { return c.pool.Run(input) }

// AppendRun is Run appending its reports to dst (Pool.AppendRun).
func (c *Compiled) AppendRun(dst []Report, input []byte) ([]Report, Stats) {
	return c.pool.AppendRun(dst, input)
}

// Geometry implements Core: bytes, bits·stride/8 a cycle, when a cycle of
// the automaton is whole bytes, its sub-symbols otherwise.
func (e *CompiledEngine) Geometry() (bits, stride int) { return e.c.unitBits, e.c.units }

// ResetState implements Core: it clears the inter-cycle active set. The
// other two vectors are cleared with it, so an engine that stopped
// mid-stream holds nothing of that stream.
func (e *CompiledEngine) ResetState() {
	e.enabled.Clear()
	e.act[0].Clear()
	e.act[1].Clear()
	e.touched.Sum.ClearAll()
	e.seeded = nil
	e.prevCount = 0
}

// SetLane attaches a lane beside the kernel: every cycle, between the
// state-match phase and the report gate, StepBlock calls lane(t), which may
// read ActiveSet, PrevActive and Starts and decide what the sink it
// passed to StepBlock lets through (internal/score's max-plus pass rides
// here). nil detaches it.
func (e *CompiledEngine) SetLane(lane func(t int)) { e.lane = lane }

// startFor returns the start-enable vector of cycle t.
func (e *CompiledEngine) startFor(t int) *startVector {
	switch {
	case t&1 != 0:
		return e.c.startOdd
	case t == 0:
		return e.c.startFirst
	}
	return e.c.startEven
}

// StepBlock implements Core: the bit-parallel datapath over the whole cycles
// of subs, visiting only the words a summary names. The cycle loop is this
// function, so what one cycle hands the next — which vector is active, how
// many states the last cycle left active, the seeded start vector with its
// words, summary and popcount — rides in locals and goes back to the engine
// once per block (which flip is current also on the cycles a lane or a tracer
// looks). The phases stay in one body — split into a method per phase the same
// loops measured 8–10% slower per byte on the Snort automaton — and every
// geometry, summary length, lane, residual list and tracer takes this one body.
//
// A quiescent cycle — the one before it left nothing active, and no state of
// its start vector matches its class tuple (startVector.admits) — enables
// its start vector and activates nothing, so the loop steps over a run of
// them adding only their start counts, and touches no vector: the next cycle
// it runs finds the enable vector seeded and both active vectors as the last
// cycle it ran left them, the previous one empty. The first cycle of a
// stream, with its own start vector, is never skipped, and no cycle is when
// a tracer watches every cycle; a lane is not called on a skipped cycle, on
// which no state is active.
func (e *CompiledEngine) StepBlock(subs []byte, t0 int, limitBits int, sink ReportSink, tracer Tracer) (enabled, active int64, peak int) {
	c := e.c
	n := c.nfa
	U, C := c.units, c.classes
	cm := c.classOf[:U]
	masks, nw := c.masks, c.words
	m0, m1 := masks[0], masks[U-1]
	reporting := c.reporting
	en, enSum := e.enabled.Bits, e.enabled.Sum
	touched := e.touched.Sum
	cur, prevCount := e.cur&1, e.prevCount
	act, actSum := e.act[cur].Bits, e.act[cur].Sum
	seeded := e.seeded
	var sBits, sSum bitvec.Words
	var sCount int
	if seeded != nil {
		sBits, sSum, sCount = seeded.Bits, seeded.Sum, seeded.count
	}

	extras := len(c.residual) != 0 || e.lane != nil || tracer != nil
	odd, even := c.startOdd, c.startEven
	skips := odd.admits != nil && even.admits != nil && tracer == nil

	for t := t0; len(subs) >= U; t, subs = t+1, subs[U:] {
		if prevCount == 0 && skips && t != 0 {
			for ; len(subs) >= U; t, subs = t+1, subs[U:] {
				tuple := int(cm[0][subs[0]]) // a skipping cycle has one or two symbols
				if U == 2 {
					tuple = tuple*C + int(cm[1][subs[1]])
				}
				v := odd
				if t&1 == 0 {
					v = even
				}
				if v.admits[tuple>>6]&(1<<(tuple&63)) != 0 {
					break
				}
				enabled += int64(v.count)
			}
			if len(subs) < U {
				break
			}
		}
		chunk := subs[:U]
		start := odd
		if t&1 == 0 {
			start = even
			if t == 0 {
				start = c.startFirst
			}
		}

		// State-transition phase (from previous cycle): the enable vector is
		// the start-enable vector of this cycle ORed with the successor rows of
		// every previously active state. Between cycles the vector holds the
		// seeded start vector exactly, so there is nothing to rebuild unless
		// the start vector itself changes.
		if start != seeded {
			for sw, s := range start.Sum {
				for s |= enSum[sw]; s != 0; s &= s - 1 {
					w := sw<<6 | bits.TrailingZeros64(s)
					en[w] = start.Bits[w]
				}
			}
			seeded = start
			sBits, sSum, sCount = start.Bits, start.Sum, start.count
		}
		if prevCount != 0 {
			c.succ.OrRowsInto(&e.act[cur^1], &e.touched)
		}

		// State-match phase, one pass per summary word over the live words
		// (start ∪ touched): active = enabled ∧ mask[0][class of chunk[0]] ∧
		// … and its summary, then over the words that came out non-zero — few
		// of the live ones — their popcount and whether a reporting state is
		// in them. The words the active vector still names from two cycles ago
		// are walked as well: off the live set the enable vector is zero, so
		// they come out zero here instead of in a sweep of their own. A cycle
		// of one symbol ANDs its mask twice rather than take a branch.
		na := 0
		var hits uint64
		o0 := int(cm[0][chunk[0]]) * nw
		o1 := o0
		if U == 2 {
			o1 = int(cm[1][chunk[1]]) * nw
		} else if U > 2 {
			for q, v := range chunk {
				e.off[q] = int(cm[q][v]) * nw
			}
		}
		for sw, rowed := range touched {
			s := sSum[sw] | rowed
			enSum[sw] = s
			s |= actSum[sw]
			var live uint64
			for ; s != 0; s &= s - 1 {
				b := bits.TrailingZeros64(s)
				w := sw<<6 | b
				x := en[w]
				if U <= 2 {
					x &= m0[o0+w] & m1[o1+w]
				} else {
					for q, o := range e.off {
						x &= masks[q][o+w]
					}
				}
				act[w] = x
				live |= (x | -x) >> 63 << (uint(b) & 63)
			}
			actSum[sw] = live
			for ; live != 0; live &= live - 1 {
				w := sw<<6 | bits.TrailingZeros64(live)
				na += bits.OnesCount64(act[w])
				hits |= act[w] & reporting[w]
			}
		}
		// Everything else a cycle can hold happens on few cycles or on few
		// engines, so the common cycle passes it all on one branch.
		if hits != 0 || extras {
			e.cur = cur // what Active and PrevActive read

			// Residual scalar path: non-decomposable match sets (no mask
			// names them, so none is active yet), matched on the cycle's
			// sub-symbols.
			if len(c.residual) != 0 {
				sym := chunk
				if e.sym != nil {
					sym = AppendSubSymbols(e.sym[:0], n.Bits, chunk)
				}
				for _, id := range c.residual {
					if en.Get(int(id)) && n.States[id].Match.Has(sym) {
						e.act[cur].Set(int(id))
						na++
						hits |= reporting[id>>6] & (1 << (uint(id) & 63))
					}
				}
			}

			if e.lane != nil {
				e.lane(t)
			}

			// Reporting, on the cycles that have a reporting state active:
			// gate the active words on the reporting mask, then per bit.
			if hits != 0 {
				base := t * n.Stride
				for sw, s := range actSum {
					for ; s != 0; s &= s - 1 {
						w := sw<<6 | bits.TrailingZeros64(s)
						for word := act[w] & reporting[w]; word != 0; word &= word - 1 {
							i := w<<6 | bits.TrailingZeros64(word)
							st := &n.States[i]
							bitPos := (base + st.ReportOffset) * n.Bits
							if limitBits < 0 || bitPos <= limitBits {
								sink(Report{BitPos: bitPos, Code: st.ReportCode, State: automata.StateID(i)})
							}
						}
					}
				}
			}

			if tracer != nil {
				tracer.OnCycle(t, en, act)
			}
		}

		// Commit: the words the rows touched go back to the start vector, and
		// the bits the rows had added to them are what the cycle enabled
		// beyond it (enabled = start popcount + added bits: Stats stays exact
		// without a popcount of the vector).
		ne := sCount
		for sw, s := range touched {
			for ; s != 0; s &= s - 1 {
				w := sw<<6 | bits.TrailingZeros64(s)
				ne += bits.OnesCount64(en[w] &^ sBits[w])
				en[w] = sBits[w]
			}
			touched[sw] = 0
		}
		enabled += int64(ne)
		active += int64(na)
		peak = max(peak, na)
		cur ^= 1
		act, actSum = e.act[cur].Bits, e.act[cur].Sum
		prevCount = na
	}
	e.cur, e.prevCount, e.seeded = cur, prevCount, seeded
	return enabled, active, peak
}

// ActiveSet returns the active set of the cycle in progress, its summary
// naming every non-zero word, and PrevActive the previous cycle's, for a
// lane (valid only inside the SetLane callback); both alias the engine's
// buffers and must not be retained or written.
func (e *CompiledEngine) ActiveSet() bitvec.Frontier { return e.act[e.cur&1] }
func (e *CompiledEngine) PrevActive() bitvec.Words   { return e.act[e.cur&1^1].Bits }

// Starts returns the states enabled as start candidates at cycle t,
// independent of any predecessor; it aliases the compiled form's tables and
// must not be written.
func (e *CompiledEngine) Starts(t int) bitvec.Words { return e.startFor(t).Bits }

// Run executes the compiled automaton over input and returns all reports
// sorted by (BitPos, Code, State) plus activity statistics. tracer may be
// nil. Reports and statistics are identical to the scalar Engine's.
func (e *CompiledEngine) Run(input []byte, tracer Tracer) ([]Report, Stats) {
	return RunBatch(e, input, 0, tracer)
}
