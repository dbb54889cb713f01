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

// RemoveUnreachableWeighted is RemoveUnreachable keeping a weight table
// in sync with the renumbering: kept states' weight rows follow their
// states, dropped states' rows disappear. With a nil table it is exactly
// RemoveUnreachable.
func RemoveUnreachableWeighted(n *NFA, w *Weights) int {
	if w == nil {
		return RemoveUnreachable(n)
	}
	reach := make([]bool, len(n.States))
	var stack []StateID
	for i := range n.States {
		if n.States[i].Start != StartNone {
			reach[i] = true
			stack = append(stack, StateID(i))
		}
	}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range n.States[cur].Out {
			if !reach[t] {
				reach[t] = true
				stack = append(stack, t)
			}
		}
	}

	newID := make([]StateID, len(n.States))
	var kept []State
	var keptEdge [][]float64
	var keptStart []float64
	for i := range n.States {
		if reach[i] {
			newID[i] = StateID(len(kept))
			kept = append(kept, n.States[i])
			keptEdge = append(keptEdge, w.Edge[i])
			keptStart = append(keptStart, w.Start[i])
		} else {
			newID[i] = -1
		}
	}
	removed := len(n.States) - len(kept)
	if removed == 0 {
		return 0
	}
	for i := range kept {
		out := kept[i].Out
		ew := keptEdge[i]
		dst := out[:0]
		dw := ew[:0]
		for j, t := range out {
			if reach[t] {
				dst = append(dst, newID[t])
				dw = append(dw, ew[j])
			}
		}
		kept[i].Out = dst
		keptEdge[i] = dw
	}
	n.States = kept
	w.Edge = keptEdge
	w.Start = keptStart
	return removed
}
