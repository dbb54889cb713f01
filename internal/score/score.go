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
// it skips the settled states, whose score is the same on every path that
// reaches them and is fixed at load (settle, Compiled.NewEngine). The kernel
// calls the pass only on the cycles on which an unsettled state is active or
// a report fires (sim.CompileWatching).
//
// The threshold is applied at the report gate: it compares each report's
// score with the threshold and lets through only the reports that clear it.
// The states no path can carry to the threshold are removed before this
// package sees the automaton, by core.Compile's threshold-prune stage
// (automata.PruneThreshold); Compile steps exactly the automaton it is given,
// pruned or not, and its reports are that automaton's.
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
// flat in-edge table, the settled states with one score or start weight a
// state, and the report threshold, O(states + edges) in all. Safe to share
// across goroutines; per-stream state lives in Engine.
type Compiled struct {
	// kernel is the bit-parallel kernel of the automaton the form was
	// compiled from; the scoring tables below are indexed by its states.
	kernel *sim.Compiled

	// State i's in-edges are inFrom/inW[inOff[i]:inOff[i+1]]: source state
	// and edge weight, the weighted transpose of the automaton's out-edge
	// lists.
	inOff  []int32
	inFrom []int32
	inW    []float64
	// settled names the states whose score is the same whenever they are
	// active (settle); NewEngine fixes it, and the kernel watches the others.
	settled bitvec.Words

	// val[i] is settled state i's score, and any other state's start weight.
	val       []float64
	threshold float64
	// mixedStates counts states whose in-edges carry more than one distinct
	// weight (ScalarScoredStates).
	mixedStates int

	pool *sim.Pool
}

// Compile builds the scored form: n's kernel with the scoring tables of w
// beside it. The weight table must validate against n; neither may be
// mutated while the compiled form is in use.
func Compile(n *automata.NFA, w *automata.Weights) (*Compiled, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return CompileValidated(n, w)
}

// CompileValidated is Compile for an automaton the caller has validated and
// not changed since (sim.CompileValidated): a machine's load path walks
// every state's rects once.
func CompileValidated(n *automata.NFA, w *automata.Weights) (*Compiled, error) {
	if w == nil {
		return nil, fmt.Errorf("score: Compile requires a weight table (use sim.Compile for binary execution)")
	}
	if err := w.Validate(n); err != nil {
		return nil, err
	}
	c := &Compiled{
		val:         append([]float64(nil), w.Start...),
		threshold:   w.Threshold,
		mixedStates: w.MixedStates(n),
	}
	c.inOff, c.inFrom, c.inW = w.InEdges(n)
	c.settle(n)
	watch := bitvec.NewWords(n.NumStates())
	for i := range n.States {
		if !c.settled.Get(i) {
			watch.Set(i)
		}
	}
	c.kernel = sim.CompileWatching(n, watch)
	c.pool = sim.NewPool(func() sim.Core { return c.NewEngine() })
	return c, nil
}

// settle finds the settled states and their scores, in one worklist pass
// over the states and edges:
//   - a head, a state with no in-edge, is settled at its start weight;
//   - any other state is settled at v when every predecessor is settled,
//     satAdd(predecessor's score, edge weight) is v on each of its in-edges
//     and, if it is a start state, its start weight is v too.
//
// A state on a cycle, or past one, or whose in-edges disagree stays
// unsettled. The rule is exact: a head is enabled by a start vector only,
// and an active non-start state has an active predecessor, whose enable it
// came from, so a settled state's score is v on every cycle it is active —
// the value the pass would write. Values are compared bit for bit, as the
// pass's max keeps the first of equal candidates.
func (c *Compiled) settle(n *automata.NFA) {
	ns := n.NumStates()
	c.settled = bitvec.NewWords(ns)
	// pending[i] counts i's in-edges from states not yet settled; a state
	// is queued once it has none.
	buf := make([]int32, 2*ns)
	pending, queue := buf[:ns], buf[ns:ns]
	for i := range ns {
		if pending[i] = c.inOff[i+1] - c.inOff[i]; pending[i] == 0 {
			queue = append(queue, int32(i))
		}
	}
	for k := 0; k < len(queue); k++ {
		i := queue[k]
		if lo, hi := c.inOff[i], c.inOff[i+1]; lo < hi {
			v := satAdd(c.val[c.inFrom[lo]], c.inW[lo])
			agree := n.States[i].Start == automata.StartNone || math.Float64bits(c.val[i]) == math.Float64bits(v)
			for p := lo + 1; p < hi && agree; p++ {
				agree = math.Float64bits(satAdd(c.val[c.inFrom[p]], c.inW[p])) == math.Float64bits(v)
			}
			if !agree {
				continue
			}
			c.val[i] = v
		}
		c.settled.Set(int(i))
		for _, t := range n.States[i].Out {
			if pending[t]--; pending[t] == 0 {
				queue = append(queue, int32(t))
			}
		}
	}
}

// Run executes the scored automaton over input on a pooled engine and
// returns the threshold-clearing reports, each with its score, in
// sim.SortReports order, plus activity statistics. Safe for concurrent use.
func (c *Compiled) Run(input []byte) ([]sim.Report, sim.Stats) { return c.pool.Run(input) }

// AppendRun is Run appending its reports to dst (sim.Pool.AppendRun).
func (c *Compiled) AppendRun(dst []sim.Report, input []byte) ([]sim.Report, sim.Stats) {
	return c.pool.AppendRun(dst, input)
}

// NewSession returns a streaming scored session: sink receives every
// threshold-clearing report with its score (nil to run for statistics
// only). Many sessions may run concurrently over one Compiled.
func (c *Compiled) NewSession(sink sim.ReportSink) *sim.Session {
	return sim.NewSession(c.NewEngine(), sink)
}

// NFA returns the automaton this form was compiled from.
func (c *Compiled) NFA() *automata.NFA { return c.kernel.NFA() }

// Threshold returns the report threshold baked into the compiled form.
func (c *Compiled) Threshold() float64 { return c.threshold }

// ScalarScoredStates returns the number of states whose in-edges carry
// heterogeneous weights: a property of the weight table, counted once at
// Compile. Execution does not depend on it — every state is scored by the
// same pass.
func (c *Compiled) ScalarScoredStates() int { return c.mixedStates }

// Engine executes a shared Compiled form over one stream: a kernel engine
// plus the score vectors. It implements sim.Core, so sim.Session drives it
// with identical chunking/flush semantics; the sink the session steps it with
// receives every report that clears the threshold, its Score set. Its Stats
// are its kernel's. Not safe for concurrent use; engines are cheap — all
// heavy tables live on the Compiled.
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

	// rejects counts the block in progress's threshold-suppressed reports,
	// scored its forwarded ones. Plain ints — they are published once per
	// block, never inside the cycle loop.
	rejects int64
	scored  int64
}

// NewEngine allocates per-stream state for the compiled scored automaton.
//
// It also fixes the settled states' scores: each is the value the pass would
// write on every cycle the state is active (settle), written here once, into
// both cycles' buffers, so the pass skips the settled states, and the gate
// and the next cycle's pass read it where they read any score.
func (c *Compiled) NewEngine() *Engine {
	ns := c.kernel.NFA().NumStates()
	buf := make([]float64, 2*ns)
	e := &Engine{
		c:      c,
		kernel: c.kernel.NewEngine(),
		score:  [2][]float64{buf[:ns:ns], buf[ns:]},
	}
	c.settled.ForEach(func(i int) { e.score[0][i], e.score[1][i] = c.val[i], c.val[i] })
	e.kernel.SetLane(e.propagate)
	e.gate = func(r sim.Report) {
		if r.Score = e.score[e.parity][r.State]; r.Score < c.threshold {
			e.rejects++
			return
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
// propagate over the states they left active when one of them is unsettled
// or reports, then reports through the threshold gate. Stale score slots are
// never read — a previous-cycle score is consulted only under the
// previous-active mask, and a current score only for states in the active
// set, a settled state's being fixed; an unsettled state active on a cycle
// had the pass called on it. The block's bytes, forwarded reports and
// rejects are published at its end.
func (e *Engine) StepBlock(subs []byte, t0 int, limitBits int, sink sim.ReportSink, tracer sim.Tracer) (enabled, active int64, peak int) {
	e.sink = sink
	enabled, active, peak = e.kernel.StepBlock(subs, t0, limitBits, e.gate, tracer)
	e.sink = nil
	e.publish(t0, len(subs), limitBits)
	return enabled, active, peak
}

// propagate is the lane the kernel calls (sim.CompiledEngine.SetLane) once
// the cycle's active set is known. It scores every active unsettled state:
// the best of its start weight (if it is a start candidate this
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
			for word := act.Bits[w] &^ c.settled[w]; word != 0; word &= word - 1 {
				b := bits.TrailingZeros64(word)
				i := w<<6 | b
				best := math.Inf(-1)
				if start>>b&1 != 0 {
					best = c.val[i]
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
