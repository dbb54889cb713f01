package automata

import (
	"fmt"
	"sort"

	"impala/internal/bitvec"
)

// StartKind describes when an STE may begin matching.
type StartKind uint8

const (
	// StartNone: the state is only enabled by a parent's activation.
	StartNone StartKind = iota
	// StartAllInput: the state is enabled on every cycle (patterns may begin
	// anywhere in the input) — ANML "start-of-input %" / all-input start.
	StartAllInput
	// StartOfData: the state is enabled only for the first cycle (anchored
	// patterns).
	StartOfData
	// StartEven: the state is enabled on even cycles (0, 2, 4, ...). Squashing
	// an 8-bit all-input-start state to 4-bit produces a hi-nibble state that
	// may only begin matching on byte boundaries — even nibble cycles.
	StartEven
)

func (k StartKind) String() string {
	switch k {
	case StartNone:
		return "none"
	case StartAllInput:
		return "all-input"
	case StartOfData:
		return "start-of-data"
	case StartEven:
		return "even-cycles"
	default:
		return fmt.Sprintf("StartKind(%d)", uint8(k))
	}
}

// StateID indexes a state within its NFA.
type StateID int32

// State is one STE of a homogeneous automaton: it both holds the matching
// rule (Match) and represents the automaton state. All transitions entering
// a state match on the state's own rule — the homogeneity property.
type State struct {
	// Match is the state's matching rule: a union of vector symbols.
	Match MatchSet
	// Start describes when the state is enabled without a parent.
	Start StartKind
	// Report marks an accepting STE.
	Report bool
	// ReportCode identifies which pattern reported (carried through all
	// transformations so reports can be attributed).
	ReportCode int
	// ReportOffset is the number of sub-symbols of the current stride chunk
	// that are really consumed when this state reports. For un-strided
	// automata it equals the stride (1). Strided report states created for
	// mid-chunk accepts carry the true offset so report positions stay
	// exact; their trailing dimensions are wildcards.
	ReportOffset int
	// Out lists successor states (enable targets).
	Out []StateID
}

// NFA is a homogeneous automaton over (Bits, Stride) vector symbols.
type NFA struct {
	// Bits is the width of one sub-symbol dimension: 8 for classic byte
	// automata, 4 for squashed nibble automata.
	Bits int
	// Stride is the number of sub-symbols consumed per cycle.
	Stride int
	// States holds all STEs; StateID indexes this slice.
	States []State
}

// New returns an empty automaton with the given symbol geometry.
func New(bits, stride int) *NFA {
	if bits != 2 && bits != 4 && bits != 8 {
		panic(fmt.Sprintf("automata: unsupported bits %d", bits))
	}
	if stride < 1 {
		panic(fmt.Sprintf("automata: invalid stride %d", stride))
	}
	return &NFA{Bits: bits, Stride: stride}
}

// AddState appends a state and returns its ID.
func (n *NFA) AddState(s State) StateID {
	if s.ReportOffset == 0 {
		s.ReportOffset = n.Stride
	}
	n.States = append(n.States, s)
	return StateID(len(n.States) - 1)
}

// AddEdge adds the transition from → to (idempotent edges are allowed and
// deduplicated by Validate/Normalize-style passes, not here).
func (n *NFA) AddEdge(from, to StateID) {
	n.States[from].Out = append(n.States[from].Out, to)
}

// NumStates returns the number of states.
func (n *NFA) NumStates() int { return len(n.States) }

// NumTransitions returns the number of edges.
func (n *NFA) NumTransitions() int {
	t := 0
	for i := range n.States {
		t += len(n.States[i].Out)
	}
	return t
}

// SymbolsPerCycle returns Bits*Stride, the input bits consumed per cycle.
func (n *NFA) BitsPerCycle() int { return n.Bits * n.Stride }

// Clone returns a deep copy of the automaton.
func (n *NFA) Clone() *NFA {
	c := &NFA{Bits: n.Bits, Stride: n.Stride, States: make([]State, len(n.States))}
	for i, s := range n.States {
		cs := s
		cs.Match = s.Match.Clone()
		cs.Out = append([]StateID(nil), s.Out...)
		c.States[i] = cs
	}
	return c
}

// DedupEdges removes duplicate out-edges from every state, preserving first
// occurrence order.
func (n *NFA) DedupEdges() {
	for i := range n.States {
		out := n.States[i].Out
		if len(out) < 2 {
			continue
		}
		seen := make(map[StateID]bool, len(out))
		kept := out[:0]
		for _, t := range out {
			if !seen[t] {
				seen[t] = true
				kept = append(kept, t)
			}
		}
		n.States[i].Out = kept
	}
}

// InEdges returns, for each state, the list of predecessor state IDs.
func (n *NFA) InEdges() [][]StateID {
	in := make([][]StateID, len(n.States))
	for i := range n.States {
		for _, t := range n.States[i].Out {
			in[t] = append(in[t], StateID(i))
		}
	}
	return in
}

// Validate checks structural invariants: edge targets in range, every state
// stride-consistent with the automaton, non-empty match sets on reachable
// states, report offsets within [1, Stride], and homogeneity by construction
// (match rules are per-state, so homogeneity always holds in this
// representation). It returns the first violation found.
func (n *NFA) Validate() error {
	if n.Bits != 2 && n.Bits != 4 && n.Bits != 8 {
		return fmt.Errorf("automata: invalid bits %d", n.Bits)
	}
	if n.Stride < 1 {
		return fmt.Errorf("automata: invalid stride %d", n.Stride)
	}
	dom := Domain(n.Bits)
	for i := range n.States {
		s := &n.States[i]
		for _, t := range s.Out {
			if t < 0 || int(t) >= len(n.States) {
				return fmt.Errorf("automata: state %d has out-of-range edge to %d", i, t)
			}
		}
		// One pass over the rects checks the domain and finds a non-empty
		// rect (one with no empty dimension): it runs on every load.
		matches := false
		for _, r := range s.Match {
			if r.Stride() != n.Stride {
				return fmt.Errorf("automata: state %d rect stride %d != NFA stride %d", i, r.Stride(), n.Stride)
			}
			full := true
			for d, ds := range r {
				if !dom.Contains(ds) {
					return fmt.Errorf("automata: state %d dim %d uses symbols outside the %d-bit domain", i, d, n.Bits)
				}
				full = full && !ds.Empty()
			}
			matches = matches || full
		}
		if !matches {
			return fmt.Errorf("automata: state %d has an empty match set", i)
		}
		if s.ReportOffset < 1 || s.ReportOffset > n.Stride {
			return fmt.Errorf("automata: state %d report offset %d out of [1,%d]", i, s.ReportOffset, n.Stride)
		}
	}
	return nil
}

// StartStates returns the IDs of states with Start != StartNone.
func (n *NFA) StartStates() []StateID {
	var out []StateID
	for i := range n.States {
		if n.States[i].Start != StartNone {
			out = append(out, StateID(i))
		}
	}
	return out
}

// ReportStates returns the IDs of reporting states.
func (n *NFA) ReportStates() []StateID {
	var out []StateID
	for i := range n.States {
		if n.States[i].Report {
			out = append(out, StateID(i))
		}
	}
	return out
}

// ConnectedComponents partitions states into weakly connected components.
// Each component is a sorted list of state IDs. Components are returned
// sorted by their smallest member.
func (n *NFA) ConnectedComponents() [][]StateID {
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
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for i := range n.States {
		for _, t := range n.States[i].Out {
			union(int32(i), int32(t))
		}
	}
	groups := map[int32][]StateID{}
	for i := range n.States {
		r := find(int32(i))
		groups[r] = append(groups[r], StateID(i))
	}
	out := make([][]StateID, 0, len(groups))
	for _, g := range groups {
		sort.Slice(g, func(a, b int) bool { return g[a] < g[b] })
		out = append(out, g)
	}
	sort.Slice(out, func(a, b int) bool { return out[a][0] < out[b][0] })
	return out
}

// Induced returns the sub-automaton induced by ids: state i of the result is
// state ids[i] of n, and it keeps the edges of n whose both ends are listed,
// in their out-edge order — an edge that leaves the set is dropped, so a set
// closed under edges (any union of weakly connected components) keeps every
// edge of its states. Match sets are aliased, not copied; the out-edge lists
// share one allocation.
func (n *NFA) Induced(ids []StateID) *NFA {
	sub := New(n.Bits, n.Stride)
	sub.States = make([]State, 0, len(ids))
	// remap[id] is id's state in sub plus one, 0 for a state off the set.
	remap := make([]StateID, len(n.States))
	for _, id := range ids {
		s := n.States[id]
		s.Out = nil
		remap[id] = sub.AddState(s) + 1
	}
	kept := 0
	for _, id := range ids {
		for _, t := range n.States[id].Out {
			if remap[t] != 0 {
				kept++
			}
		}
	}
	out := make([]StateID, 0, kept)
	for i, id := range ids {
		at := len(out)
		for _, t := range n.States[id].Out {
			if r := remap[t]; r != 0 {
				out = append(out, r-1)
			}
		}
		if len(out) > at {
			sub.States[i].Out = out[at:len(out):len(out)]
		}
	}
	return sub
}

// BFSOrder returns states of one component in BFS order starting from its
// start states (or the smallest-ID state if the component has none).
func (n *NFA) BFSOrder(component []StateID) []StateID {
	inComp := make(map[StateID]bool, len(component))
	for _, id := range component {
		inComp[id] = true
	}
	var queue []StateID
	seen := make(map[StateID]bool, len(component))
	for _, id := range component {
		if n.States[id].Start != StartNone {
			queue = append(queue, id)
			seen[id] = true
		}
	}
	if len(queue) == 0 && len(component) > 0 {
		queue = append(queue, component[0])
		seen[component[0]] = true
	}
	order := make([]StateID, 0, len(component))
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		order = append(order, cur)
		for _, t := range n.States[cur].Out {
			if inComp[t] && !seen[t] {
				seen[t] = true
				queue = append(queue, t)
			}
		}
	}
	// Unreachable states (e.g. isolated or only reachable backwards) go last
	// in ID order so the labeling is total.
	for _, id := range component {
		if !seen[id] {
			order = append(order, id)
		}
	}
	return order
}

// Stats summarizes an automaton for benchmark tables.
type Stats struct {
	States      int
	Transitions int
	// AvgDegree is the average undirected node degree, 2T/S — the paper's
	// Table 2 "Ave. Node Degree" convention.
	AvgDegree float64
	LargestCC int
	NumCCs    int
	// MatchSymbolHistogram[k] counts states whose match set contains k
	// tuples, bucketed: index 0 => 1 symbol, 1 => 2..8, 2 => 9..32,
	// 3 => 33..128, 4 => >128. Used for the Figure 2 analysis at stride 1.
	MatchSymbolHistogram [5]int
}

// ComputeStats returns summary statistics for the automaton.
func (n *NFA) ComputeStats() Stats {
	st := Stats{States: n.NumStates(), Transitions: n.NumTransitions()}
	if st.States > 0 {
		st.AvgDegree = 2 * float64(st.Transitions) / float64(st.States)
	}
	ccs := n.ConnectedComponents()
	st.NumCCs = len(ccs)
	for _, cc := range ccs {
		if len(cc) > st.LargestCC {
			st.LargestCC = len(cc)
		}
	}
	for i := range n.States {
		k := n.States[i].Match.Size()
		switch {
		case k <= 1:
			st.MatchSymbolHistogram[0]++
		case k <= 8:
			st.MatchSymbolHistogram[1]++
		case k <= 32:
			st.MatchSymbolHistogram[2]++
		case k <= 128:
			st.MatchSymbolHistogram[3]++
		default:
			st.MatchSymbolHistogram[4]++
		}
	}
	return st
}

// ByteMatchState is a convenience constructor for a stride-1 8-bit STE.
func ByteMatchState(set bitvec.ByteSet, start StartKind, report bool) State {
	return State{
		Match:        MatchSet{Rect{set}},
		Start:        start,
		Report:       report,
		ReportOffset: 1,
	}
}
