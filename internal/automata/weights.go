package automata

import (
	"errors"
	"fmt"
	"math"
)

// WeightLimit bounds the magnitude of any single transition or start
// weight. The bound keeps path compositions exact: the V-TeSS pipeline
// adds at most Stride weights per strided edge, and the scored engine
// saturates accumulated scores at ±ScoreLimit, so every intermediate sum
// of in-range weights is representable exactly for integer-valued costs.
const WeightLimit = 1 << 40

// ScoreLimit is the saturation bound of max-plus score accumulation: the
// scored engine clamps every accumulated score to [-ScoreLimit,
// ScoreLimit]. It is far below the float64 integer-exactness boundary
// (2^53), so saturating additions of in-range weights never round.
const ScoreLimit = 1 << 50

// Weights attaches max-plus scores to an automaton: one weight per
// transition (parallel to each state's Out list), one start weight per
// state (the score of entering it as a start state), and a report
// threshold. The score of a path is the sum of the weights of its edges
// plus the start weight of its first state; a report fires only when the
// best accumulated score over all paths reaching the reporting state
// meets Threshold.
//
// A Weights value is always interpreted relative to one specific NFA;
// Validate checks the shapes line up.
type Weights struct {
	// Edge[s][j] is the weight of the transition States[s].Out[j].
	Edge [][]float64
	// Start[s] is the score of entering state s as a start state. Entries
	// for states with Start == StartNone are ignored.
	Start []float64
	// Threshold is the minimum accumulated score a report must carry to be
	// emitted.
	Threshold float64
}

// NewWeights returns an all-zero weight table shaped for n: with a zero
// threshold it scores every automaton behavior 0, which makes the scored
// engine report exactly what the binary engine reports.
func NewWeights(n *NFA) *Weights {
	w := &Weights{
		Edge:  make([][]float64, len(n.States)),
		Start: make([]float64, len(n.States)),
	}
	for i := range n.States {
		w.Edge[i] = make([]float64, len(n.States[i].Out))
	}
	return w
}

// Clone returns a deep copy (nil in, nil out).
func (w *Weights) Clone() *Weights {
	if w == nil {
		return nil
	}
	c := &Weights{
		Edge:      make([][]float64, len(w.Edge)),
		Start:     append([]float64(nil), w.Start...),
		Threshold: w.Threshold,
	}
	for i, row := range w.Edge {
		c.Edge[i] = append([]float64(nil), row...)
	}
	return c
}

// Induced returns the weight table of n.Induced(ids) for the automaton n
// this table scores: row i is state ids[i]'s less the weights of the edges
// that leave the set — aliased, not copied, when the state lost none.
func (w *Weights) Induced(n *NFA, ids []StateID) *Weights {
	in := make([]bool, len(n.States))
	for _, id := range ids {
		in[id] = true
	}
	sub := &Weights{Edge: make([][]float64, len(ids)), Start: make([]float64, len(ids)), Threshold: w.Threshold}
	for i, id := range ids {
		row := w.Edge[id]
		for j, t := range n.States[id].Out {
			if !in[t] {
				// id lost an edge: its row keeps the weights of the edges it kept.
				kept := append(make([]float64, 0, len(row)-1), row[:j]...)
				for k := j + 1; k < len(row); k++ {
					if in[n.States[id].Out[k]] {
						kept = append(kept, row[k])
					}
				}
				row = kept
				break
			}
		}
		sub.Edge[i], sub.Start[i] = row, w.Start[id]
	}
	return sub
}

// InEdges returns the weighted transpose of n's out-edge lists under this
// table: state i's in-edges are from/wt[off[i]:off[i+1]], source state and
// edge weight, in ascending source order. It is a counting sort — in-degrees,
// prefix sums, then one pass over the out-edges dropping each into its
// target's next free slot.
func (w *Weights) InEdges(n *NFA) (off, from []int32, wt []float64) {
	ns := len(n.States)
	off = make([]int32, ns+1)
	for i := range n.States {
		for _, t := range n.States[i].Out {
			off[t+1]++
		}
	}
	for i := 0; i < ns; i++ {
		off[i+1] += off[i]
	}
	from, wt = make([]int32, off[ns]), make([]float64, off[ns])
	next := append([]int32(nil), off[:ns]...)
	for i := range n.States {
		for j, t := range n.States[i].Out {
			from[next[t]], wt[next[t]] = int32(i), w.Edge[i][j]
			next[t]++
		}
	}
	return off, from, wt
}

// PruneThreshold removes the threshold-dead states of n under this table's
// threshold (thresholdDead): it returns the sub-automaton the live states
// induce, its weight table and live, the ascending IDs in n of its states, so
// a report the sub-automaton makes at state i is n's at live[i]. The reports
// that clear the threshold, scores included, are exactly n's, in n's order.
// When nothing is dead it returns n, w and a nil live; when every state is,
// an automaton of no states and an empty, non-nil live.
func PruneThreshold(n *NFA, w *Weights) (*NFA, *Weights, []StateID) {
	dead := thresholdDead(n, w)
	if dead == nil {
		return n, w, nil
	}
	live := make([]StateID, 0, len(n.States))
	for i, d := range dead {
		if !d {
			live = append(live, StateID(i))
		}
	}
	return n.Induced(live), w.Induced(n, live), live
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
// Saturation. The scored engine's score of a path is its sum clamped at
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
func thresholdDead(n *NFA, w *Weights) []bool {
	ns := n.NumStates()
	largest := 0.0
	for i := range n.States {
		for _, x := range w.Edge[i] {
			if x != math.Trunc(x) {
				return nil
			}
			largest = max(largest, math.Abs(x))
		}
		if x := w.Start[i]; n.States[i].Start != StartNone {
			if x != math.Trunc(x) {
				return nil
			}
			largest = max(largest, math.Abs(x))
		}
	}
	if largest*float64(ns) > ScoreLimit {
		return nil
	}

	inOff, inFrom, inW := w.InEdges(n)
	h, g := make([]float64, ns), make([]float64, ns)
	pending, order := make([]int32, ns), make([]int32, 0, ns)
	for i := range n.States {
		h[i] = math.Inf(-1)
		if n.States[i].Start != StartNone {
			h[i] = w.Start[i]
		}
		if pending[i] = inOff[i+1] - inOff[i]; pending[i] == 0 {
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
		for p := inOff[i]; p < inOff[i+1]; p++ {
			u := inFrom[p]
			g[u] = max(g[u], inW[p]+g[i])
			if pending[u]--; pending[u] == 0 {
				order = append(order, u)
			}
		}
	}

	var dead []bool
	for i, p := range pending {
		// p != 0: i is on or reaches a cycle, and its g is +∞.
		if p == 0 && !math.IsInf(h[i], 0) && !math.IsInf(g[i], 0) && h[i]+g[i] < w.Threshold {
			if dead == nil {
				dead = make([]bool, ns)
			}
			dead[i] = true
		}
	}
	return dead
}

// NumEdges returns the total number of weighted transitions.
func (w *Weights) NumEdges() int {
	t := 0
	for _, row := range w.Edge {
		t += len(row)
	}
	return t
}

// MixedStates returns the number of states of n whose in-edges carry more
// than one distinct weight in this table — the edit-distance mesh's error
// states, entered by substitution and insertion edges at different costs.
func (w *Weights) MixedStates(n *NFA) int {
	first := make([]float64, len(n.States))
	// seen[t] is 0 before t's first in-edge, 1 while its in-edges agree, 2
	// once they differ.
	seen := make([]uint8, len(n.States))
	mixed := 0
	for i := range n.States {
		for j, t := range n.States[i].Out {
			switch x := w.Edge[i][j]; {
			case seen[t] == 0:
				first[t], seen[t] = x, 1
			case seen[t] == 1 && x != first[t]:
				seen[t] = 2
				mixed++
			}
		}
	}
	return mixed
}

// checkWeight rejects NaN, infinities and out-of-range magnitudes — the
// values that would break max-plus ordering or float exactness. The error
// is the predicate only; the caller names the weight, and only on failure
// (Validate walks every edge of every scored load).
func checkWeight(v float64) error {
	if math.IsNaN(v) {
		return errors.New("is NaN")
	}
	if math.IsInf(v, 0) {
		return errors.New("is infinite")
	}
	if math.Abs(v) > WeightLimit {
		return fmt.Errorf("magnitude %g exceeds the weight limit %d", v, int64(WeightLimit))
	}
	return nil
}

// Validate checks that the weight table is shaped exactly for n and that
// every weight is finite and within ±WeightLimit (the threshold within
// ±ScoreLimit).
func (w *Weights) Validate(n *NFA) error {
	if len(w.Edge) != len(n.States) || len(w.Start) != len(n.States) {
		return fmt.Errorf("automata: weights shaped for %d/%d states, automaton has %d",
			len(w.Edge), len(w.Start), len(n.States))
	}
	for i := range n.States {
		if len(w.Edge[i]) != len(n.States[i].Out) {
			return fmt.Errorf("automata: state %d has %d weights for %d transitions",
				i, len(w.Edge[i]), len(n.States[i].Out))
		}
		for j, v := range w.Edge[i] {
			if err := checkWeight(v); err != nil {
				return fmt.Errorf("automata: state %d edge %d weight %v", i, j, err)
			}
		}
		if err := checkWeight(w.Start[i]); err != nil {
			return fmt.Errorf("automata: state %d start weight %v", i, err)
		}
	}
	if math.IsNaN(w.Threshold) || math.IsInf(w.Threshold, 0) || math.Abs(w.Threshold) > ScoreLimit {
		return fmt.Errorf("automata: threshold %g outside ±%d", w.Threshold, int64(ScoreLimit))
	}
	return nil
}
