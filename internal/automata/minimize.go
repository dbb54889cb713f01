package automata

import (
	"fmt"
	"sort"
	"strings"
)

// Minimize applies the compiler minimizations the paper relies on for the
// ring benchmarks and after striding: repeated prefix merge and suffix merge
// until a fixpoint. Both merges are language-preserving for homogeneous
// automata:
//
//   - prefix merge: two states with identical match rules, start kinds,
//     report attributes, and identical parent sets are indistinguishable
//     going forward, so they are merged (classic common-prefix sharing).
//   - suffix merge: two states with identical match rules, report
//     attributes, start kinds, and identical child sets are merged (common
//     suffix sharing).
//
// Minimize returns the number of states removed.
func Minimize(n *NFA) int {
	removed := 0
	for {
		r := prefixMergePass(n) + suffixMergePass(n)
		if r == 0 {
			return removed
		}
		removed += r
	}
}

func stateAttrKey(s *State) string {
	return fmt.Sprintf("%d|%v|%d|%d|%s", s.Start, s.Report, s.ReportCode, s.ReportOffset, s.Match.Key())
}

// idSetKey canonicalizes a neighbor set, mapping a state's own ID to a
// sentinel so that self-loops compare structurally (a state looping on
// itself matches another state looping on itself).
func idSetKey(ids []StateID, self StateID) string {
	sorted := make([]StateID, len(ids))
	for i, id := range ids {
		if id == self {
			id = -2
		}
		sorted[i] = id
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var b strings.Builder
	for _, id := range sorted {
		fmt.Fprintf(&b, "%d,", id)
	}
	return b.String()
}

// componentIDs returns a connected-component index per state. Merges are
// restricted to a single component: fusing states across components (e.g.
// identical start states of unrelated rules) is language-preserving but
// welds independent rules into one giant component, destroying the CC
// structure the placement stage depends on.
func componentIDs(n *NFA) []int {
	comp := make([]int, len(n.States))
	parent := make([]int32, len(n.States))
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := range n.States {
		for _, t := range n.States[i].Out {
			ra, rb := find(int32(i)), find(int32(t))
			if ra != rb {
				parent[ra] = rb
			}
		}
	}
	for i := range comp {
		comp[i] = int(find(int32(i)))
	}
	return comp
}

// prefixMergePass merges states with equal attributes and equal parent sets.
func prefixMergePass(n *NFA) int {
	in := n.InEdges()
	comp := componentIDs(n)
	groups := map[string][]StateID{}
	for i := range n.States {
		s := &n.States[i]
		key := fmt.Sprintf("%d|", comp[i]) + stateAttrKey(s) + "#" + idSetKey(in[i], StateID(i))
		groups[key] = append(groups[key], StateID(i))
	}
	return applyMerges(n, groups)
}

// suffixMergePass merges states with equal attributes and equal child sets.
func suffixMergePass(n *NFA) int {
	comp := componentIDs(n)
	groups := map[string][]StateID{}
	for i := range n.States {
		s := &n.States[i]
		key := fmt.Sprintf("%d|", comp[i]) + stateAttrKey(s) + "#" + idSetKey(s.Out, StateID(i))
		groups[key] = append(groups[key], StateID(i))
	}
	return applyMerges(n, groups)
}

// applyMerges rewrites the automaton keeping the first state of every group
// as the representative, then compacts state IDs. It returns the number of
// states removed.
func applyMerges(n *NFA, groups map[string][]StateID) int {
	rep := make([]StateID, len(n.States))
	for i := range rep {
		rep[i] = StateID(i)
	}
	merged := 0
	for _, g := range groups {
		if len(g) < 2 {
			continue
		}
		sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
		for _, other := range g[1:] {
			rep[other] = g[0]
			merged++
		}
	}
	if merged == 0 {
		return 0
	}
	// Union out-edges of merged states into the representative.
	for i := range n.States {
		if rep[i] != StateID(i) {
			n.States[rep[i]].Out = append(n.States[rep[i]].Out, n.States[i].Out...)
		}
	}
	// Compact: new IDs for surviving states.
	newID := make([]StateID, len(n.States))
	var kept []State
	for i := range n.States {
		if rep[i] == StateID(i) {
			newID[i] = StateID(len(kept))
			kept = append(kept, n.States[i])
		}
	}
	for i := range n.States {
		if rep[i] != StateID(i) {
			newID[i] = newID[rep[i]]
		}
	}
	for i := range kept {
		out := kept[i].Out
		seen := make(map[StateID]bool, len(out))
		dst := out[:0]
		for _, t := range out {
			nt := newID[rep[t]]
			if !seen[nt] {
				seen[nt] = true
				dst = append(dst, nt)
			}
		}
		kept[i].Out = dst
	}
	n.States = kept
	return merged
}

// Reachable returns, in ascending order, the states reachable from a start
// state. The rest are dead configuration that would waste hardware columns:
// n.Induced(Reachable(n)) drops them, and Weights.Induced their weight rows.
func Reachable(n *NFA) []StateID {
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
	var ids []StateID
	for i, r := range reach {
		if r {
			ids = append(ids, StateID(i))
		}
	}
	return ids
}
