// Hybrid tier planning: partition the automaton into weakly connected
// components, determinize each under a blowup budget, and execute the
// low-ambiguity components as one dense union DFA while the ambiguous rest
// keeps the compiled bit-parallel NFA engine. The paper's observation that
// DFA matching is the fastest simple software technique until the table
// blows caches becomes a per-component decision: the budget is the cache
// argument made explicit, and the fallback is exactly the regime where
// spatial/bit-parallel execution wins.
package dfa

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"impala/internal/automata"
	"impala/internal/obs"
	"impala/internal/par"
	"impala/internal/sim"
)

// TierKind labels the engine a component executes on.
type TierKind uint8

const (
	// TierNFA runs on the compiled bit-parallel NFA engine.
	TierNFA TierKind = iota
	// TierDFA runs on the dense union DFA fast path.
	TierDFA
)

func (k TierKind) String() string {
	switch k {
	case TierNFA:
		return "nfa"
	case TierDFA:
		return "dfa"
	default:
		return fmt.Sprintf("TierKind(%d)", uint8(k))
	}
}

// TierOptions tunes tier planning.
type TierOptions struct {
	// CCMaxStates caps each component's trial determinization (default
	// 4096): a component whose subset construction exceeds it is assigned
	// to the NFA tier.
	CCMaxStates int
	// MaxStates caps the union DFA over all DFA-eligible components
	// (default 1<<16). Components are admitted smallest-trial-first until
	// the union construction would exceed it; the rest are evicted to the
	// NFA tier.
	MaxStates int
	// MinStateShare is the minimum fraction of NFA states the DFA tier
	// must cover to be worth running a second engine per cycle (default
	// 0.25). A negative value disables the gate; zero selects the default.
	MinStateShare float64
	// Workers bounds the planning and construction pools (<= 0 selects
	// GOMAXPROCS). Plans and tables are identical for any value.
	Workers int
	// Trace, when non-nil, records component-trial and determinization
	// worker-lane spans.
	Trace *obs.Trace
}

// CCPlan records the tier decision for one connected component.
type CCPlan struct {
	// Kind is the tier the component executes on.
	Kind TierKind
	// States is the component's NFA state count.
	States int
	// DFAStates is the component's trial determinization size; 0 means
	// the trial exceeded CCMaxStates (blowup).
	DFAStates int
	// Evicted marks a component that determinized within its own budget
	// but was dropped from the union DFA (union budget or share gate).
	Evicted bool
}

// Plan is the sealed record of a tier selection — enough to reproduce the
// tier split of the automaton and to gate regressions on its shape.
type Plan struct {
	CCs []CCPlan
	// DFAStates / DFATableBytes describe the union DFA (0 when no DFA
	// tier was selected). NFAStates / DFANFAStates count the NFA states
	// executed by each tier.
	DFAStates     int
	DFATableBytes int
	NFAStates     int
	DFANFAStates  int
	// Budget echo, for artifact inspection.
	CCBudget    int
	UnionBudget int
}

// DFACCs returns the number of components on the DFA tier.
func (p *Plan) DFACCs() int {
	n := 0
	for _, cc := range p.CCs {
		if cc.Kind == TierDFA {
			n++
		}
	}
	return n
}

// Selection is a tier selection before anything executes it: the plan, the
// union DFA over the states dfaIDs (nil when no DFA tier was selected) and
// the states nfaIDs left to the bit-parallel engine. Both ID lists are
// ascending and each is a union of components. BuildTiered and Unseal turn
// one into a Tiered; the sharded form hands Lockstep every shard's selection
// as one Part each instead.
type Selection struct {
	nfa  *automata.NFA
	plan Plan

	dfa            *DFA
	dfaIDs, nfaIDs []automata.StateID // tier-local state id -> original id

	planCPU time.Duration
}

// Tiered is the two-engine execution form of a tier selection: at most one
// union DFA and one compiled bit-parallel NFA, the one lane of one
// sim.Lockstep (the NFA stepped beside the DFA's walker when both exist).
// Reports carry original automaton state IDs; merged output is
// byte-identical to the scalar simulator's. A Tiered value is
// immutable after construction and safe to share across goroutines.
type Tiered struct {
	*Selection
	lockstep *sim.Lockstep
}

// tiered installs the lockstep form of the selection: the one-part case of
// Lockstep.
func (s *Selection) tiered() (*Tiered, error) {
	l, err := Lockstep(s.nfa, []Part{{Sel: s}})
	if err != nil {
		return nil, err
	}
	return &Tiered{Selection: s, lockstep: l}, nil
}

// Part is one block of an automaton for Lockstep: Orig lists its states as
// the automaton's IDs, ascending, and Sel is the tier selection over the
// block's sub-automaton — or over the automaton itself when Orig is nil. A
// part with no selection runs whole on the kernel. A sharded form's shard is
// a Part.
type Part struct {
	Orig []automata.StateID
	Sel  *Selection
}

// remap maps the IDs of the part's sub-automaton to the automaton's.
func (p Part) remap(ids []automata.StateID) []automata.StateID {
	if p.Orig == nil {
		return ids
	}
	out := make([]automata.StateID, len(ids))
	for j, id := range ids {
		out[j] = p.Orig[id]
	}
	return out
}

// Lockstep builds the lockstep form of parts of n, with one lane whatever
// the parts and their tiering: every part's DFA on one walker (Lane), its ID
// table composed through the part's own so a report is remapped once, and
// every state no DFA covers — a selection's NFA tier, an unselected part's
// whole block — on one kernel compiled over their union, which the walker
// steps beside itself (or which is the lane, when no part has a DFA). The
// kernel's cycle costs its live words, so a kernel per part bought a
// start-vector pass and a dispatch per part and cycle and nothing else; a
// kernel in a lane of its own made the lockstep hand the walker one cycle a
// call. The tiered form is the one-part case.
func Lockstep(n *automata.NFA, parts []Part) (*sim.Lockstep, error) {
	var ds []*DFA
	var dfaOrigs [][]automata.StateID
	var nfaIDs []automata.StateID
	for _, p := range parts {
		if p.Sel == nil {
			nfaIDs = append(nfaIDs, p.Orig...)
			continue
		}
		if p.Sel.dfa != nil {
			ds, dfaOrigs = append(ds, p.Sel.dfa), append(dfaOrigs, p.remap(p.Sel.dfaIDs))
		}
		nfaIDs = append(nfaIDs, p.remap(p.Sel.nfaIDs)...)
	}
	var kernel *sim.Compiled
	if len(nfaIDs) > 0 {
		slices.Sort(nfaIDs)
		var err error
		if kernel, err = sim.Compile(n.Induced(nfaIDs)); err != nil {
			return nil, err
		}
	}
	var ln sim.Lane
	switch {
	case len(ds) > 0:
		ln = lane(ds, dfaOrigs, kernel, nfaIDs)
	case kernel != nil:
		ln = sim.Lane{New: func() sim.Core { return kernel.NewEngine() }, Orig: nfaIDs}
	}
	return sim.NewLockstep(n.Bits, n.Stride, ln), nil
}

// BuildTiered selects tiers (Select) and constructs the hybrid execution
// form over them.
func BuildTiered(n *automata.NFA, opts TierOptions) (*Tiered, error) {
	s, err := Select(n, opts)
	if err != nil {
		return nil, err
	}
	return s.tiered()
}

// Select plans the tiers of an automaton and builds the DFA tier's tables:
//
//  1. Partition into weakly connected components.
//  2. Trial-determinize every component in parallel under CCMaxStates.
//  3. Admit eligible components smallest-trial-first into one union DFA
//     under MaxStates (the largest admissible prefix is found by binary
//     search — union subset counts are monotone in the component set).
//  4. Drop the DFA tier entirely if it covers less than MinStateShare of
//     the automaton (two engines per cycle must pay for themselves).
//  5. Leave the remaining components to the bit-parallel NFA engine.
//
// The plan and the tables are byte-identical for any worker count.
func Select(n *automata.NFA, opts TierOptions) (*Selection, error) {
	if err := n.Validate(); err != nil {
		return nil, fmt.Errorf("dfa: invalid automaton: %w", err)
	}
	ccBudget := opts.CCMaxStates
	if ccBudget == 0 {
		ccBudget = 4096
	}
	unionBudget := opts.MaxStates
	if unionBudget == 0 {
		unionBudget = 1 << 16
	}
	minShare := opts.MinStateShare
	if minShare == 0 {
		minShare = 0.25
	}
	workers := par.Workers(opts.Workers)

	ccs := n.ConnectedComponents()
	plan := Plan{CCs: make([]CCPlan, len(ccs)), CCBudget: ccBudget, UnionBudget: unionBudget}

	// Trial determinization, one component per work item. Durations are
	// summed as the stage's CPU time.
	var cpuNS atomic.Int64
	trialErrs := make([]error, len(ccs))
	par.TraceFor(opts.Trace, "tier/trial", workers, len(ccs), func(i int) {
		t0 := time.Now()
		sub := n.Induced(ccs[i])
		d, err := Build(sub, Options{MaxStates: ccBudget, Workers: 1})
		cpuNS.Add(int64(time.Since(t0)))
		pc := &plan.CCs[i]
		pc.States = len(ccs[i])
		switch {
		case err == nil:
			pc.Kind = TierDFA
			pc.DFAStates = d.NumStates()
		case errors.Is(err, ErrStateBlowup):
			pc.Kind = TierNFA
		default:
			trialErrs[i] = err
		}
	})
	for _, err := range trialErrs {
		if err != nil {
			return nil, err
		}
	}

	// Admission order: smallest trial DFA first, component index as the
	// tiebreak — deterministic and biased toward covering many components
	// before the union budget binds.
	var eligible []int
	for i := range plan.CCs {
		if plan.CCs[i].Kind == TierDFA {
			eligible = append(eligible, i)
		}
	}
	sort.Slice(eligible, func(a, b int) bool {
		ca, cb := plan.CCs[eligible[a]], plan.CCs[eligible[b]]
		if ca.DFAStates != cb.DFAStates {
			return ca.DFAStates < cb.DFAStates
		}
		return eligible[a] < eligible[b]
	})

	unionIDs := func(k int) []automata.StateID {
		var ids []automata.StateID
		for _, ci := range eligible[:k] {
			ids = append(ids, ccs[ci]...)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		return ids
	}
	tryUnion := func(k int) (*DFA, []automata.StateID, error) {
		if k == 0 {
			return nil, nil, nil
		}
		ids := unionIDs(k)
		t0 := time.Now()
		d, err := Build(n.Induced(ids), Options{MaxStates: unionBudget, Workers: workers, Trace: opts.Trace})
		cpuNS.Add(int64(time.Since(t0)))
		if err != nil {
			if errors.Is(err, ErrStateBlowup) {
				return nil, nil, nil
			}
			return nil, nil, err
		}
		return d, ids, nil
	}

	// Largest admissible prefix. The all-in attempt is the common case;
	// on blowup, binary search between the empty (always admissible) and
	// the failed prefix. Monotonicity holds because the union's reachable
	// subset states project onto each smaller union's.
	admitted := len(eligible)
	unionDFA, unionSub, err := tryUnion(admitted)
	if err != nil {
		return nil, err
	}
	if unionDFA == nil && admitted > 0 {
		lo, hi := 0, admitted // lo admissible, hi not
		var loDFA *DFA
		var loIDs []automata.StateID
		for lo+1 < hi {
			mid := (lo + hi) / 2
			d, ids, err := tryUnion(mid)
			if err != nil {
				return nil, err
			}
			if d != nil {
				lo, loDFA, loIDs = mid, d, ids
			} else {
				hi = mid
			}
		}
		admitted, unionDFA, unionSub = lo, loDFA, loIDs
	}
	for _, ci := range eligible[admitted:] {
		plan.CCs[ci].Kind = TierNFA
		plan.CCs[ci].Evicted = true
	}

	// Share gate: a tiny DFA tier still costs a second engine dispatch
	// per cycle; below the share threshold the single-engine NFA run wins.
	if unionDFA != nil && minShare > 0 {
		if float64(len(unionSub)) < minShare*float64(n.NumStates()) {
			for _, ci := range eligible[:admitted] {
				plan.CCs[ci].Kind = TierNFA
				plan.CCs[ci].Evicted = true
			}
			unionDFA, unionSub = nil, nil
		}
	}

	if unionDFA != nil {
		plan.DFAStates = unionDFA.NumStates()
		plan.DFATableBytes = unionDFA.TableBytes()
		plan.DFANFAStates = len(unionSub)
	}

	var nfaIDs []automata.StateID
	for i, cc := range ccs {
		if plan.CCs[i].Kind == TierNFA {
			nfaIDs = append(nfaIDs, cc...)
		}
	}
	sort.Slice(nfaIDs, func(a, b int) bool { return nfaIDs[a] < nfaIDs[b] })
	plan.NFAStates = len(nfaIDs)

	if m := tierMetricsPtr.Load(); m != nil {
		demoted := 0
		for _, cc := range plan.CCs {
			if cc.Kind == TierNFA {
				demoted++
			}
		}
		m.fallbacks.Add(int64(demoted))
	}
	return &Selection{
		nfa: n, plan: plan, dfa: unionDFA, dfaIDs: unionSub, nfaIDs: nfaIDs,
		planCPU: time.Duration(cpuNS.Load()),
	}, nil
}

// Plan returns the sealed tier-selection record.
func (s *Selection) Plan() Plan { return s.plan }

// DFA returns the union DFA (nil when no DFA tier was selected).
func (s *Selection) DFA() *DFA { return s.dfa }

// NFA returns the automaton the selection was made over or unsealed against
// (Select, UnsealSelection); nil for a selection UnsealComponents made,
// which a sharded form steps over its own automaton.
func (s *Selection) NFA() *automata.NFA { return s.nfa }

// PlanCPU returns the total CPU time spent in trial and union
// determinizations (the tier-select stage's CPU statistic).
func (s *Selection) PlanCPU() time.Duration { return s.planCPU }

// NewCore returns a fresh per-stream core over the tiered form; it
// implements sim.Core.
func (t *Tiered) NewCore() sim.Core { return t.lockstep.NewCore() }

// NewSession returns a streaming session over the tiered form. Many
// sessions may run concurrently over one Tiered; each owns its cores.
func (t *Tiered) NewSession(sink sim.ReportSink) *sim.Session { return t.lockstep.NewSession(sink) }

// Run executes the tiered form over input on a pooled core and returns the
// sorted reports and stats, byte-identical (reports and statistics both)
// to the scalar simulator over the original automaton. It is safe for
// concurrent use.
func (t *Tiered) Run(input []byte) ([]sim.Report, sim.Stats) { return t.AppendRun(nil, input) }

// AppendRun is Run appending its reports to dst (sim.Pool.AppendRun); the
// tier metrics count this run's reports only.
func (t *Tiered) AppendRun(dst []sim.Report, input []byte) ([]sim.Report, sim.Stats) {
	out, st := t.lockstep.AppendRun(dst, input)
	if m := tierMetricsPtr.Load(); m != nil {
		if t.dfa != nil {
			m.dfaBytes.Add(int64(len(input)))
		}
		if len(t.nfaIDs) > 0 {
			m.nfaBytes.Add(int64(len(input)))
		}
		m.reports.Add(int64(len(out) - len(dst)))
	}
	return out, st
}

// Sealed is the serialization form of a tier selection: the plan plus the
// union DFA, already checked — FromRaw's structural bounds hold, whether it
// was determinized or decoded. The NFA tier is not serialized — it is
// rebuilt from the automaton and the plan on load (the artifact already
// carries the automaton; the DFA tables are the part that is expensive to
// recompute).
type Sealed struct {
	Plan Plan
	DFA  *DFA // nil when no DFA tier
}

// Seal returns the serialization form of the tier selection, which holds
// the selection's own DFA.
func (s *Selection) Seal() *Sealed { return &Sealed{Plan: s.plan, DFA: s.dfa} }

// Unseal reassembles a Tiered execution form from a sealed plan and the
// automaton it was planned for (UnsealSelection, then the execution form).
func Unseal(n *automata.NFA, s *Sealed) (*Tiered, error) {
	sel, err := UnsealSelection(n, s)
	if err != nil {
		return nil, err
	}
	return sel.tiered()
}

// UnsealSelection reassembles a tier selection from its sealed form and the
// automaton it was planned for: the automaton is validated and its
// components found, and UnsealComponents checks the plan against them. This
// is the one check of a sealed tier plan, compiled or loaded; the selection
// walks the sealed DFA itself, whose own bounds were checked when it was
// built or decoded.
func UnsealSelection(n *automata.NFA, s *Sealed) (*Selection, error) {
	if err := n.Validate(); err != nil {
		return nil, fmt.Errorf("dfa: invalid automaton: %w", err)
	}
	sel, err := UnsealComponents(n.ConnectedComponents(), n.Bits, n.Stride, s)
	if err != nil {
		return nil, err
	}
	sel.nfa = n
	return sel, nil
}

// UnsealComponents reassembles a tier selection from its sealed form and the
// components of the automaton it was planned for, in
// automata.ConnectedComponents order and numbering, over a bits/stride
// geometry. It checks every component's size, that the DFA tables are
// present exactly when a component is on the DFA tier, the tables' geometry
// and report states, and the plan's derived counts against the tables and
// the components. The selection holds no automaton (NFA returns nil): the
// sharded form hands it over as one shard's Part.
func UnsealComponents(ccs [][]automata.StateID, bits, stride int, s *Sealed) (*Selection, error) {
	if len(ccs) != len(s.Plan.CCs) {
		return nil, fmt.Errorf("dfa: sealed plan has %d components, automaton has %d", len(s.Plan.CCs), len(ccs))
	}
	var dfaIDs, nfaIDs []automata.StateID
	for i, cc := range ccs {
		pc := s.Plan.CCs[i]
		if pc.States != len(cc) {
			return nil, fmt.Errorf("dfa: sealed component %d has %d states, automaton has %d", i, pc.States, len(cc))
		}
		if pc.Kind == TierDFA {
			dfaIDs = append(dfaIDs, cc...)
		} else {
			nfaIDs = append(nfaIDs, cc...)
		}
	}
	sort.Slice(dfaIDs, func(a, b int) bool { return dfaIDs[a] < dfaIDs[b] })
	sort.Slice(nfaIDs, func(a, b int) bool { return nfaIDs[a] < nfaIDs[b] })

	if (s.DFA == nil) != (len(dfaIDs) == 0) {
		return nil, fmt.Errorf("dfa: sealed DFA tables inconsistent with plan")
	}
	dfaStates, tableBytes := 0, 0
	if d := s.DFA; d != nil {
		if d.bits != bits || d.stride != stride {
			return nil, fmt.Errorf("dfa: sealed DFA geometry %d/%d != automaton %d/%d", d.bits, d.stride, bits, stride)
		}
		for _, e := range d.entries {
			if int(e.State) < 0 || int(e.State) >= len(dfaIDs) {
				return nil, fmt.Errorf("dfa: sealed report state %d out of tier range [0,%d)", e.State, len(dfaIDs))
			}
		}
		dfaStates, tableBytes = d.NumStates(), d.TableBytes()
	}
	for _, c := range []struct {
		what        string
		sealed, got int
	}{
		{"DFA states", s.Plan.DFAStates, dfaStates},
		{"DFA table bytes", s.Plan.DFATableBytes, tableBytes},
		{"states on the DFA tier", s.Plan.DFANFAStates, len(dfaIDs)},
		{"states on the NFA tier", s.Plan.NFAStates, len(nfaIDs)},
	} {
		if c.sealed != c.got {
			return nil, fmt.Errorf("dfa: sealed plan claims %d %s, the tier has %d", c.sealed, c.what, c.got)
		}
	}
	return &Selection{plan: s.Plan, dfa: s.DFA, dfaIDs: dfaIDs, nfaIDs: nfaIDs}, nil
}
