package dfa

import (
	"impala/internal/automata"
	"impala/internal/sim"
)

// Lane returns the one lane of t's lockstep form.
func (t *Tiered) Lane() sim.Lane { return t.lockstep.Lane() }

// Counts returns the number of classes at every stride position.
func (cl *Classes) Counts() []int {
	out := make([]int, len(cl.rep))
	for p, r := range cl.rep {
		out[p] = len(r)
	}
	return out
}

// BuildIn is Build over the sub-automaton of n on ids (ascending), stepped by
// n's classes, as the DFAs of one automaton's parts are: they share its class
// map and may be walked as one lane.
func BuildIn(n *automata.NFA, ids []automata.StateID, opts Options) (*DFA, error) {
	b, err := determinize(n.Induced(ids), opts)
	if err != nil {
		return nil, err
	}
	return b.seal(ClassesOf(n)), nil
}
