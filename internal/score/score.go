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
// integer-valued costs never round). The per-cycle scoring pass is
// bit-parallel where the automaton allows it: states whose in-edges all
// carry one weight take the fast path — predecessor-row AND over the
// previous active words, one max-reduce, one add — and only states with
// heterogeneous in-edge weights fall back to a scalar per-edge walk. The
// V-TeSS pipeline emits automata whose strided states each have a single
// entry weight, so compiled scored machines run almost entirely on the
// fast path.
package score

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"

	"impala/internal/automata"
	"impala/internal/bitvec"
	"impala/internal/sim"
)

// Report is a binary report plus its accumulated max-plus score.
type Report struct {
	sim.Report
	// Score is the best accumulated weight over all paths that produced
	// this report, saturated to ±automata.ScoreLimit.
	Score float64
}

// Sink consumes scored reports as an engine produces them (cycle order,
// unsorted within a cycle).
type Sink func(Report)

// inEdge is one scalar-path predecessor: source state and edge weight.
type inEdge struct {
	from int32
	w    float64
}

// Compiled is the immutable scored form of a weighted automaton: the binary
// kernel (a sim.Compiled, which owns every table the enable, match and
// report phases read) plus only what scoring adds — a predecessor matrix for
// the uniform fast path, per-state entry weights, scalar in-edge lists for
// heterogeneous states, start weights and the report threshold. Safe to
// share across goroutines; per-stream state lives in Engine.
type Compiled struct {
	kernel *sim.Compiled

	// pred row i: mask of state i's predecessors (the transpose of the
	// kernel's successor matrix), driving the scoring fast path.
	pred *bitvec.Matrix

	// uniform[i] is true when every in-edge of state i carries uniformW[i]
	// (including states with no in-edges); heterogeneous states carry their
	// in-edges on hetIn[i] for the scalar fallback.
	uniform  []bool
	uniformW []float64
	hetIn    [][]inEdge

	startW    []float64
	threshold float64

	pool sync.Pool
}

// Compile builds the scored form: the binary kernel of n and the scoring
// tables of w beside it. The weight table must validate against n; neither
// may be mutated while the compiled form is in use.
func Compile(n *automata.NFA, w *automata.Weights) (*Compiled, error) {
	if w == nil {
		return nil, fmt.Errorf("score: Compile requires a weight table (use sim.Compile for binary execution)")
	}
	if err := w.Validate(n); err != nil {
		return nil, err
	}
	kernel, err := sim.Compile(n)
	if err != nil {
		return nil, err
	}
	ns := n.NumStates()
	c := &Compiled{
		kernel:    kernel,
		pred:      bitvec.NewMatrix(ns, ns),
		uniform:   make([]bool, ns),
		uniformW:  make([]float64, ns),
		hetIn:     make([][]inEdge, ns),
		startW:    append([]float64(nil), w.Start...),
		threshold: w.Threshold,
	}

	// In-edge weight classification: collect per-target in-edges, then mark
	// targets whose weights are all equal as uniform (fast path).
	in := make([][]inEdge, ns)
	for i := range n.States {
		for j, t := range n.States[i].Out {
			c.pred.Set(int(t), i)
			in[t] = append(in[t], inEdge{from: int32(i), w: w.Edge[i][j]})
		}
	}
	for i := range in {
		c.uniform[i] = true
		for _, e := range in[i] {
			if e.w != in[i][0].w {
				c.uniform[i] = false
				break
			}
		}
		if c.uniform[i] {
			if len(in[i]) > 0 {
				c.uniformW[i] = in[i][0].w
			}
		} else {
			c.hetIn[i] = in[i]
		}
	}
	c.pool.New = func() any { return c.NewEngine() }
	return c, nil
}

// Kernel returns the binary compiled form the scored form runs on: the same
// automaton with the weights ignored.
func (c *Compiled) Kernel() *sim.Compiled { return c.kernel }

// NFA returns the automaton this form was compiled from.
func (c *Compiled) NFA() *automata.NFA { return c.kernel.NFA() }

// Threshold returns the report threshold baked into the compiled form.
func (c *Compiled) Threshold() float64 { return c.threshold }

// ResidualStates returns the number of states on the scalar match path.
func (c *Compiled) ResidualStates() int { return c.kernel.ResidualStates() }

// ScalarScoredStates returns the number of states whose in-edge weights are
// heterogeneous — the ones scored on the scalar fallback each cycle.
func (c *Compiled) ScalarScoredStates() int {
	k := 0
	for _, u := range c.uniform {
		if !u {
			k++
		}
	}
	return k
}

// Engine executes a shared Compiled form over one stream: a kernel engine
// plus the score vectors. It implements sim.Core, so sim.Session drives it
// with identical chunking/flush semantics; the scored sink receives every
// report that clears the threshold, while the binary sink passed by the
// session sees the same reports (for statistics and binary consumers). Not
// safe for concurrent use; engines are cheap — all heavy tables live on the
// Compiled.
type Engine struct {
	c                *Compiled
	kernel           *sim.CompiledEngine
	score, prevScore []float64

	// onScore, when non-nil, receives each threshold-clearing report with
	// its score.
	onScore Sink
	// gate is the threshold comparator the kernel's report phase emits into,
	// built once; sink is where it forwards the cycle in progress's passes.
	gate, sink sim.ReportSink

	// rejects counts threshold-suppressed reports since the last drain;
	// scored counts emitted scored reports. Plain ints — the obs boundary
	// is the session/run layer, never the cycle loop.
	rejects int64
	scored  int64
}

// NewEngine allocates per-stream state for the compiled scored automaton.
func (c *Compiled) NewEngine() *Engine {
	ns := c.kernel.NFA().NumStates()
	e := &Engine{
		c:         c,
		kernel:    c.kernel.NewEngine(),
		score:     make([]float64, ns),
		prevScore: make([]float64, ns),
	}
	e.kernel.SetLane(e.propagate)
	e.gate = func(r sim.Report) {
		sc := e.score[r.State]
		if sc < c.threshold {
			e.rejects++
			return
		}
		e.sink(r)
		e.scored++
		if e.onScore != nil {
			e.onScore(Report{Report: r, Score: sc})
		}
	}
	return e
}

// SetSink attaches the scored report sink (may be nil to drop scores).
func (e *Engine) SetSink(s Sink) { e.onScore = s }

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

// StepCycle implements sim.Core: one kernel cycle with the score lane riding
// it — the kernel runs its enable and match phases, calls propagate over the
// states they left active, then reports through the threshold gate. Stale
// score slots are never read — a previous-cycle score is consulted only
// under the previous-active mask, and a current score only for states in
// the active set.
func (e *Engine) StepCycle(chunk []byte, t int, limitBits int, sink sim.ReportSink, tracer sim.Tracer) (int, int) {
	e.sink = sink
	ne, na := e.kernel.StepCycle(chunk, t, limitBits, e.gate, tracer)
	e.prevScore, e.score = e.score, e.prevScore
	return ne, na
}

// propagate is the lane the kernel calls (sim.CompiledEngine.SetLane) once
// the cycle's active set is known. It scores every active state: the best
// of its start weight (if it is a start candidate this cycle, whether or not
// a predecessor also reaches it) and the max over active predecessors of
// (predecessor score + entry weight).
func (e *Engine) propagate(t int) {
	c, k := e.c, e.kernel
	prev := k.PrevActive()
	score, pw := e.score, e.prevScore
	for w, word := range k.Active() {
		for word != 0 {
			i := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			best := math.Inf(-1)
			if k.StartEnabled(i, t) {
				best = c.startW[i]
			}
			if c.uniform[i] {
				// Fast path: one row AND against the previous active words,
				// max-reduce the surviving predecessors, one add.
				row := c.pred.Row(i)
				maxPrev := math.Inf(-1)
				for rw, rword := range row {
					rword &= prev[rw]
					for rword != 0 {
						u := rw<<6 + bits.TrailingZeros64(rword)
						rword &= rword - 1
						if pw[u] > maxPrev {
							maxPrev = pw[u]
						}
					}
				}
				if !math.IsInf(maxPrev, -1) {
					if v := satAdd(maxPrev, c.uniformW[i]); v > best {
						best = v
					}
				}
			} else {
				// Scalar fallback: heterogeneous in-edge weights.
				for _, ie := range c.hetIn[i] {
					if prev.Get(int(ie.from)) {
						if v := satAdd(pw[ie.from], ie.w); v > best {
							best = v
						}
					}
				}
			}
			score[i] = best
		}
	}
}

// SortReports orders scored reports by (BitPos, Code, State) — the binary
// convention, so zero-weight scored output lines up with sim output
// byte-for-byte.
func SortReports(reports []Report) {
	sort.Slice(reports, func(i, j int) bool {
		if reports[i].BitPos != reports[j].BitPos {
			return reports[i].BitPos < reports[j].BitPos
		}
		if reports[i].Code != reports[j].Code {
			return reports[i].Code < reports[j].Code
		}
		return reports[i].State < reports[j].State
	})
}
