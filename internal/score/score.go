// Package score executes weighted automata as a lane beside the bit-parallel
// kernel of internal/sim: the kernel's enable and state-match phases decide
// which states are active, exactly as for a binary automaton, and this
// package adds the score vector that rides alongside the active-state
// words. Each transition carries a max-plus weight (automata.Weights); the
// score of a state at cycle t is the best accumulated weight over all
// enabling paths, and a report fires only when its state's score meets the
// table's threshold — edit-distance and alignment scoring instead of binary
// accept.
//
// Accumulation is max-plus and saturating (scores clamp to
// ±automata.ScoreLimit, far below float64's integer-exactness boundary, so
// integer-valued costs never round). The per-cycle scoring pass is one loop:
// for every state the kernel left active, walk its in-edges and keep the best
// (predecessor score + edge weight) over the predecessors that were active
// the cycle before. Its cost tracks the in-edges of the active states — a
// handful per cycle on the meshes this lane serves — not the state count, and
// it skips the heads, the states with no in-edge, whose score is fixed
// (Compiled.NewEngine).
//
// The threshold is applied twice. At Compile it removes the states no path
// can carry to it: each state's best start-to-state and state-to-report
// weights bound every score a report reached through it, and the states
// whose bound falls below the threshold (threshold-dead) are taken out of
// the automaton the scored engine steps — it runs the kernel of the
// sub-automaton the live states induce, so a dead state holds no bit of any
// vector and is never enabled, active, scored or reported. At run time the
// gate compares each report's score with it and gives the report its state's
// ID in the full automaton. The reports that clear the threshold, scores and
// states included, are exactly those of the unpruned kernel, in its order.
//
// A scored report is a sim.Report with its Score set, so the scored form runs
// on the same session, the same pooled one-shot runner and the same report
// order as every binary form.
package score

import (
	"fmt"
	"math"
	"math/bits"

	"impala/internal/automata"
	"impala/internal/bitvec"
	"impala/internal/sim"
)

// Compiled is the immutable scored form of a weighted automaton: the kernel
// the scored engine steps (a sim.Compiled, which owns every table the
// enable, match and report phases read) and only what scoring adds — the
// flat in-edge table, start weights and the report threshold, O(states +
// edges) in all. Safe to share across goroutines; per-stream state lives in
// Engine.
type Compiled struct {
	// nfa is the automaton the form was compiled from.
	nfa *automata.NFA
	// live is the kernel the scored engine steps: nfa's, or, when some states
	// are threshold-dead, the kernel of the sub-automaton the live states
	// induce. The scoring tables below are indexed by its states.
	live *sim.Compiled
	// dead is the set of threshold-dead states, nil when there are none; orig
	// then maps live's state i to its ID in nfa (nil when nothing is dead).
	// The live states keep their order, so orig is ascending and a cycle's
	// reports leave the gate in the order nfa's kernel would emit them.
	dead bitvec.Words
	orig []automata.StateID

	// State i's in-edges are inFrom/inW[inOff[i]:inOff[i+1]]: source state
	// and edge weight, the weighted transpose of the automaton's out-edge
	// lists.
	inOff  []int32
	inFrom []int32
	inW    []float64
	// heads names the states with no in-edge, whose score NewEngine fixes.
	heads bitvec.Words

	startW    []float64
	threshold float64
	// mixedStates counts states whose in-edges carry more than one distinct
	// weight (ScalarScoredStates).
	mixedStates int

	pool *sim.Pool
}

// Compile builds the scored form: the one kernel its engine steps — n's, or
// that of the sub-automaton without w's threshold-dead states — with the
// scoring tables of w beside it. The weight table must validate against n;
// neither may be mutated while the compiled form is in use.
func Compile(n *automata.NFA, w *automata.Weights) (*Compiled, error) {
	if w == nil {
		return nil, fmt.Errorf("score: Compile requires a weight table (use sim.Compile for binary execution)")
	}
	if err := w.Validate(n); err != nil {
		return nil, err
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	c := &Compiled{
		nfa:         n,
		threshold:   w.Threshold,
		mixedStates: w.MixedStates(n),
	}
	c.transpose(n, w)
	if c.dead = c.thresholdDead(n, w); c.dead != nil {
		c.orig = make([]automata.StateID, 0, n.NumStates()-c.dead.Count())
		for i := range n.States {
			if !c.dead.Get(i) {
				c.orig = append(c.orig, automata.StateID(i))
			}
		}
		w = w.Induced(n, c.orig)
		n = n.Induced(c.orig)
		c.transpose(n, w)
	}
	var err error
	if c.live, err = sim.Compile(n); err != nil {
		return nil, err
	}
	c.startW = append([]float64(nil), w.Start...)
	c.heads = bitvec.NewWords(n.NumStates())
	for i := range n.States {
		if c.inOff[i] == c.inOff[i+1] {
			c.heads.Set(i)
		}
	}
	c.pool = sim.NewPool(func() sim.Core { return c.NewEngine() })
	return c, nil
}

// transpose builds the in-edge tables of n under w by counting sort:
// in-degrees, prefix sums, then one pass over the out-edges dropping each
// into its target's next free slot.
func (c *Compiled) transpose(n *automata.NFA, w *automata.Weights) {
	ns := n.NumStates()
	c.inOff = make([]int32, ns+1)
	for i := range n.States {
		for _, t := range n.States[i].Out {
			c.inOff[t+1]++
		}
	}
	for i := 0; i < ns; i++ {
		c.inOff[i+1] += c.inOff[i]
	}
	c.inFrom = make([]int32, c.inOff[ns])
	c.inW = make([]float64, c.inOff[ns])
	next := append([]int32(nil), c.inOff[:ns]...)
	for i := range n.States {
		for j, t := range n.States[i].Out {
			c.inFrom[next[t]] = int32(i)
			c.inW[next[t]] = w.Edge[i][j]
			next[t]++
		}
	}
}

// thresholdDead returns the states no report that clears the threshold can
// pass through, or nil when there are none. For every state i it bounds
//
//	h[i]: the best start weight plus path weight from any start to i;
//	g[i]: the best path weight from i to any reporting state (0 if i reports),
//
// and i is dead when both are finite and h[i] + g[i] < threshold. Then every
// path through i — all it can score and all it can hand a successor — sums
// to less than the threshold, so taking i out of the automaton removes only
// paths whose reports the gate would reject, and a report that clears the
// threshold keeps its best path and so its score.
//
// Each bound is one topological pass (Kahn's order: forward over the
// in-degrees for h, backward over the out-degrees for g), so the cost is
// linear in states and edges. A state on a cycle, or reachable from one, is
// never ordered forward and its h is +∞; one on or reaching a cycle is never
// ordered backward and its g is +∞ — a positive cycle makes its bound
// unbounded, and no state is priced by its cycles. A state no start reaches
// (h = −∞) or that reaches no report (g = −∞) is structurally dead and left
// alone: only the threshold prunes here.
//
// Saturation. The engine's score of a path is its sum clamped at
// ±ScoreLimit after every addition. A clamp at +ScoreLimit only lowers a
// score; a clamp at −ScoreLimit raises it, to at most −ScoreLimit plus the
// weight of the rest of the path, which the bounds do not cap (the clamp may
// fall on a state that also reaches a cycle). So no state is pruned unless no
// path the bounds cover can clamp at all: a finite-bound state lies on no
// cycle and neither does any state a path through it visits, so such a path
// visits each state once and sums at most states × (largest weight
// magnitude) at every step; when that is within ±ScoreLimit, every such path
// scores its plain sum. Every weight must also be an integer, so that sums
// are exact in either order (h adds forward, g backward). Under these
// conditions the open threshold −ScoreLimit prunes nothing — no sum falls
// below it — nor do zero weights at threshold 0.
func (c *Compiled) thresholdDead(n *automata.NFA, w *automata.Weights) bitvec.Words {
	ns := n.NumStates()
	largest := 0.0
	for i := range n.States {
		for _, x := range w.Edge[i] {
			if x != math.Trunc(x) {
				return nil
			}
			largest = max(largest, math.Abs(x))
		}
		if x := w.Start[i]; n.States[i].Start != automata.StartNone {
			if x != math.Trunc(x) {
				return nil
			}
			largest = max(largest, math.Abs(x))
		}
	}
	if largest*float64(ns) > automata.ScoreLimit {
		return nil
	}

	h, g := make([]float64, ns), make([]float64, ns)
	pending, order := make([]int32, ns), make([]int32, 0, ns)
	for i := range n.States {
		h[i] = math.Inf(-1)
		if n.States[i].Start != automata.StartNone {
			h[i] = w.Start[i]
		}
		if pending[i] = c.inOff[i+1] - c.inOff[i]; pending[i] == 0 {
			order = append(order, int32(i))
		}
	}
	for k := 0; k < len(order); k++ {
		i := order[k]
		for j, t := range n.States[i].Out {
			h[t] = max(h[t], h[i]+w.Edge[i][j])
			if pending[t]--; pending[t] == 0 {
				order = append(order, int32(t))
			}
		}
	}
	for i, p := range pending {
		if p != 0 {
			h[i] = math.Inf(1)
		}
	}

	order = order[:0]
	for i := range n.States {
		g[i] = math.Inf(-1)
		if n.States[i].Report {
			g[i] = 0
		}
		if pending[i] = int32(len(n.States[i].Out)); pending[i] == 0 {
			order = append(order, int32(i))
		}
	}
	for k := 0; k < len(order); k++ {
		i := order[k]
		for p := c.inOff[i]; p < c.inOff[i+1]; p++ {
			u := c.inFrom[p]
			g[u] = max(g[u], c.inW[p]+g[i])
			if pending[u]--; pending[u] == 0 {
				order = append(order, u)
			}
		}
	}

	var dead bitvec.Words
	for i, p := range pending {
		// p != 0: i is on or reaches a cycle, and its g is +∞.
		if p == 0 && !math.IsInf(h[i], 0) && !math.IsInf(g[i], 0) && h[i]+g[i] < c.threshold {
			if dead == nil {
				dead = bitvec.NewWords(ns)
			}
			dead.Set(i)
		}
	}
	return dead
}

// Run executes the scored automaton over input on a pooled engine and
// returns the threshold-clearing reports, each with its score, in
// sim.SortReports order, plus activity statistics. Safe for concurrent use.
func (c *Compiled) Run(input []byte) ([]sim.Report, sim.Stats) { return c.pool.Run(input) }

// NewSession returns a streaming scored session: sink receives every
// threshold-clearing report with its score (nil to run for statistics
// only). Many sessions may run concurrently over one Compiled.
func (c *Compiled) NewSession(sink sim.ReportSink) *sim.Session {
	return sim.NewSession(c.NewEngine(), sink)
}

// NFA returns the automaton this form was compiled from.
func (c *Compiled) NFA() *automata.NFA { return c.nfa }

// Threshold returns the report threshold baked into the compiled form.
func (c *Compiled) Threshold() float64 { return c.threshold }

// ScalarScoredStates returns the number of states whose in-edges carry
// heterogeneous weights: a property of the weight table, counted once at
// Compile. Execution does not depend on it — every state is scored by the
// same pass.
func (c *Compiled) ScalarScoredStates() int { return c.mixedStates }

// Engine executes a shared Compiled form over one stream: a kernel engine
// over the live sub-automaton plus the score vectors. It implements sim.Core,
// so sim.Session drives it with identical chunking/flush semantics; the sink
// the session steps it with receives every report that clears the
// threshold, its Score set and its State the full automaton's. Its Stats
// count the live sub-automaton: a threshold-dead state is neither enabled
// nor active. Not safe for concurrent use; engines are cheap — all heavy
// tables live on the Compiled.
type Engine struct {
	c      *Compiled
	kernel *sim.CompiledEngine
	// score[t&1] holds the scores cycle t writes, so the previous cycle's are
	// in the other buffer and nothing is swapped between cycles; parity is
	// the cycle in progress's t&1, for the gate.
	score  [2][]float64
	parity int

	// gate is the threshold comparator the kernel's report phase emits into,
	// built once; sink is where it forwards the block in progress's passes
	// (nil between blocks, so an idle pooled engine pins no request).
	gate, sink sim.ReportSink
	// trace shows a tracer stepped with a pruned form's block the full
	// automaton's numbering (its target nil between blocks).
	trace origTracer

	// rejects counts the block in progress's threshold-suppressed reports,
	// scored its forwarded ones. Plain ints — they are published once per
	// block, never inside the cycle loop.
	rejects int64
	scored  int64
}

// NewEngine allocates per-stream state for the compiled scored automaton.
//
// It also fixes the heads' scores. A head has no in-edge, so only a start
// vector can enable it, and whenever it is active its score is its start
// weight — the value the pass would write every cycle it is active. That
// weight is written here once, into both cycles' buffers, so the pass skips
// the heads, and the gate and the next cycle's pass read it where they read
// any score.
func (c *Compiled) NewEngine() *Engine {
	ns := c.live.NFA().NumStates()
	buf := make([]float64, 2*ns)
	e := &Engine{
		c:      c,
		kernel: c.live.NewEngine(),
		score:  [2][]float64{buf[:ns:ns], buf[ns:]},
	}
	c.heads.ForEach(func(i int) { e.score[0][i], e.score[1][i] = c.startW[i], c.startW[i] })
	e.kernel.SetLane(e.propagate)
	e.gate = func(r sim.Report) {
		if r.Score = e.score[e.parity][r.State]; r.Score < c.threshold {
			e.rejects++
			return
		}
		if c.orig != nil {
			r.State = c.orig[r.State]
		}
		e.scored++
		e.sink(r)
	}
	return e
}

// Geometry implements sim.Core.
func (e *Engine) Geometry() (int, int) { return e.kernel.Geometry() }

// ResetState implements sim.Core.
func (e *Engine) ResetState() { e.kernel.ResetState() }

// satAdd is the saturating max-plus addition: sums clamp to ±ScoreLimit.
func satAdd(a, b float64) float64 {
	s := a + b
	if s > automata.ScoreLimit {
		return automata.ScoreLimit
	}
	if s < -automata.ScoreLimit {
		return -automata.ScoreLimit
	}
	return s
}

// StepBlock implements sim.Core: one kernel block with the score lane riding
// it — every cycle the kernel runs its enable and match phases, calls
// propagate over the states they left active, then reports through the
// threshold gate. Stale score slots are never read — a previous-cycle score
// is consulted only under the previous-active mask, and a current score only
// for states in the active set, a head's being fixed. A tracer sees the
// vectors in the full automaton's numbering. The block's bytes, forwarded
// reports and rejects are published at its end.
func (e *Engine) StepBlock(subs []byte, t0 int, limitBits int, sink sim.ReportSink, tracer sim.Tracer) (enabled, active int64, peak int) {
	e.sink = sink
	if tracer != nil && e.c.orig != nil {
		if e.trace.enabled == nil {
			ns := e.c.nfa.NumStates()
			e.trace = origTracer{orig: e.c.orig, enabled: bitvec.NewWords(ns), active: bitvec.NewWords(ns)}
		}
		e.trace.to, tracer = tracer, &e.trace
	}
	enabled, active, peak = e.kernel.StepBlock(subs, t0, limitBits, e.gate, tracer)
	e.sink, e.trace.to = nil, nil
	e.publish(t0, len(subs), limitBits)
	return enabled, active, peak
}

// origTracer shows a tracer the live kernel's vectors in the numbering of the
// automaton the form was compiled from: every live state at its ID there,
// every threshold-dead state clear. It costs a pass over the set bits a
// cycle, paid only by a pruned form with a tracer attached.
type origTracer struct {
	orig            []automata.StateID
	enabled, active bitvec.Words
	to              sim.Tracer
}

func (tr *origTracer) OnCycle(t int, enabled, active bitvec.Words) {
	tr.scatter(tr.enabled, enabled)
	tr.scatter(tr.active, active)
	tr.to.OnCycle(t, tr.enabled, tr.active)
}

// scatter sets in dst exactly the original IDs of the states src holds.
func (tr *origTracer) scatter(dst, src bitvec.Words) {
	dst.ClearAll()
	for w, x := range src {
		for ; x != 0; x &= x - 1 {
			dst.Set(int(tr.orig[w<<6|bits.TrailingZeros64(x)]))
		}
	}
}

// propagate is the lane the kernel calls (sim.CompiledEngine.SetLane) once
// the cycle's active set is known. It scores every active state but the
// heads: the best of its start weight (if it is a start candidate this
// cycle, whether or not a predecessor also reaches it) and the max over
// active predecessors of (predecessor score + edge weight), written to cycle
// t's buffer from the previous cycle's, so a whole block is one kernel call.
// It visits only the words the active set's summary names, and reads each
// one's start word once.
func (e *Engine) propagate(t int) {
	c, k := e.c, e.kernel
	act, prev, starts := k.ActiveSet(), k.PrevActive(), k.Starts(t)
	e.parity = t & 1
	score, pw := e.score[t&1], e.score[t&1^1]
	for sw, s := range act.Sum {
		for ; s != 0; s &= s - 1 {
			w := sw<<6 | bits.TrailingZeros64(s)
			start := starts[w]
			for word := act.Bits[w] &^ c.heads[w]; word != 0; word &= word - 1 {
				b := bits.TrailingZeros64(word)
				i := w<<6 | b
				best := math.Inf(-1)
				if start>>b&1 != 0 {
					best = c.startW[i]
				}
				for p, end := c.inOff[i], c.inOff[i+1]; p < end; p++ {
					u := c.inFrom[p]
					if prev.Get(int(u)) {
						if v := satAdd(pw[u], c.inW[p]); v > best {
							best = v
						}
					}
				}
				score[i] = best
			}
		}
	}
}
