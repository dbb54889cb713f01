// Package shard partitions an automaton's weakly connected components into
// K independent shard automata and executes them as one logical engine.
// The planner is the CAM backend's bank packer lifted one level up:
// first-fit-decreasing over per-component weights into K capacity bins,
// deterministic for any worker count. Components are atomic, so every
// pattern's reports come from exactly one shard and the merged, sorted
// output is identical to the unsharded engine's.
//
// Sharding pays twice. Each shard is tier-planned independently, so the
// DFA fast-path budget applies per shard: rulesets whose union DFA blows
// the budget as one automaton determinize shard by shard, moving states
// from the bit-parallel NFA fallback onto dense table walks even on one
// core. Shards are stepped in lockstep on one core, like the paper's
// independent blocks on one broadcast symbol — and fused by engine kind: one
// walker over every shard's DFA, one bit-parallel kernel over everything the
// DFAs do not cover, stepped beside the walker, so the lockstep has one lane
// at any K;
// concurrency across requests belongs to the caller.
package shard

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"impala/internal/automata"
	"impala/internal/dfa"
	"impala/internal/obs"
	"impala/internal/par"
	"impala/internal/sim"
)

// Options tunes shard planning and construction.
type Options struct {
	// Shards is the shard count K (>= 1).
	Shards int
	// Tier, when non-nil, tier-plans every shard independently under these
	// budgets (dfa.Select per shard): the CCMaxStates / MaxStates
	// caps model per-engine capacity, so K shards carry K times the
	// fast-path budget of the unsharded automaton.
	Tier *dfa.TierOptions
	// Workers bounds the shard-construction pool (<= 0 selects
	// GOMAXPROCS). Plans and engines are identical for any value.
	Workers int
	// Trace, when non-nil, records per-shard construction spans.
	Trace *obs.Trace
}

// Plan is the sealed record of a shard partition: which shard each
// connected component executes on. It is deterministic for a fixed
// automaton and shard count, so artifacts carry it and the plan table holds
// it exactly.
type Plan struct {
	// Shards is the shard count K.
	Shards int
	// CCShard maps component index (automata.ConnectedComponents order) to
	// its shard in [0, Shards).
	CCShard []int
	// CCStates records each component's state count, so an unsealed plan
	// can be revalidated against the automaton it claims to partition.
	CCStates []int
}

// ShardStates returns the per-shard state totals.
func (p Plan) ShardStates() []int {
	out := make([]int, p.Shards)
	for i, s := range p.CCShard {
		out[s] += p.CCStates[i]
	}
	return out
}

// MaxStates and MinStates bound the per-shard state totals (the balance
// the planner optimizes). MinStates counts only non-empty shards when the
// component count is below the shard count.
func (p Plan) MaxStates() int {
	max := 0
	for _, s := range p.ShardStates() {
		if s > max {
			max = s
		}
	}
	return max
}

// MinStates returns the smallest non-empty shard's state total (0 when
// every shard is empty).
func (p Plan) MinStates() int {
	min := 0
	for _, s := range p.ShardStates() {
		if s > 0 && (min == 0 || s < min) {
			min = s
		}
	}
	return min
}

// ccWeight is the planner's size estimate for one component: states plus
// match rects, the same stack the CAM bank packer prices (every state is a
// row; every extra rect widens its match arrays).
func ccWeight(n *automata.NFA, cc []automata.StateID) int {
	w := len(cc)
	for _, id := range cc {
		w += len(n.States[id].Match)
	}
	return w
}

// planShards assigns components to shards: first-fit-decreasing by weight
// (component index breaks ties) into the least-loaded shard (lowest index
// breaks ties). Whole components stay together, so no pattern's reports
// ever straddle shards — the merged report stream interleaves only at
// component granularity.
func planShards(n *automata.NFA, ccs [][]automata.StateID, k int) Plan {
	p := Plan{
		Shards:   k,
		CCShard:  make([]int, len(ccs)),
		CCStates: make([]int, len(ccs)),
	}
	weights := make([]int, len(ccs))
	order := make([]int, len(ccs))
	for i, cc := range ccs {
		p.CCStates[i] = len(cc)
		weights[i] = ccWeight(n, cc)
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if weights[order[a]] != weights[order[b]] {
			return weights[order[a]] > weights[order[b]]
		}
		return order[a] < order[b]
	})
	load := make([]int, k)
	for _, ci := range order {
		best := 0
		for s := 1; s < k; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		p.CCShard[ci] = best
		load[best] += weights[ci]
	}
	return p
}

// Sharded is the K-shard execution form, unsealed from a partition (Unseal,
// UnsealShards). It is immutable after construction and safe to share across
// goroutines; per-stream state lives in the cores handed out by
// NewCore/NewSession and pooled by Run.
type Sharded struct {
	nfa  *automata.NFA
	plan Plan
	// shards holds one part per shard: its states and, when tiering was
	// requested, its tier selection. An empty shard holds no state.
	shards   []dfa.Part
	lockstep *sim.Lockstep // one lane: the DFA walker, the kernel beside it
}

// shardIDs collects each shard's state IDs, sorted ascending, from a plan.
func shardIDs(ccs [][]automata.StateID, p Plan) [][]automata.StateID {
	ids := make([][]automata.StateID, p.Shards)
	for ci, cc := range ccs {
		ids[p.CCShard[ci]] = append(ids[p.CCShard[ci]], cc...)
	}
	for _, list := range ids {
		sort.Slice(list, func(a, b int) bool { return list[a] < list[b] })
	}
	return ids
}

// Partition plans a K-way partition of the automaton's components and, when
// opts.Tier is set, tier-plans every live shard (empty shards stay empty), on
// a pool bounded by opts.Workers. It returns the sealed partition and the CPU
// time spent: the serial planning plus every shard's tier selection. No shard
// engine is built; Unseal builds the execution form. The partition is
// byte-identical for any worker count.
func Partition(n *automata.NFA, opts Options) (*Sealed, time.Duration, error) {
	if opts.Shards < 1 {
		return nil, 0, fmt.Errorf("shard: shard count must be >= 1, got %d", opts.Shards)
	}
	if err := n.Validate(); err != nil {
		return nil, 0, fmt.Errorf("shard: invalid automaton: %w", err)
	}
	t0 := time.Now()
	ccs := n.ConnectedComponents()
	plan := planShards(n, ccs, opts.Shards)
	ids := shardIDs(ccs, plan)
	cpu := time.Since(t0)
	out := &Sealed{Plan: plan, Tiers: make([]*dfa.Sealed, len(ids))}
	errs := make([]error, len(ids))
	var cpuNS atomic.Int64
	// Per-shard tier planning runs serially inside each shard slot — the
	// cross-shard pool is the parallelism — so nested pools never
	// oversubscribe.
	par.TraceFor(opts.Trace, "shard/build", opts.Workers, len(ids), func(k int) {
		if len(ids[k]) == 0 || opts.Tier == nil {
			return
		}
		t0 := time.Now()
		defer func() { cpuNS.Add(int64(time.Since(t0))) }()
		topt := *opts.Tier
		topt.Workers = 1
		topt.Trace = nil
		sel, err := dfa.Select(n.Induced(ids[k]), topt)
		if err != nil {
			errs[k] = err
			return
		}
		out.Tiers[k] = sel.Seal()
	})
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	if m := shardMetricsPtr.Load(); m != nil {
		m.builds.Add(1)
	}
	return out, cpu + time.Duration(cpuNS.Load()), nil
}

// Build plans a partition (Partition) and unseals its execution form, for
// callers that do not keep the sealed plan.
func Build(n *automata.NFA, opts Options) (*Sharded, error) {
	s, _, err := Partition(n, opts)
	if err != nil {
		return nil, err
	}
	return Unseal(n, s)
}

// Plan returns the sealed partition record.
func (s *Sharded) Plan() Plan { return s.plan }

// NFA returns the original automaton the partition was planned for.
func (s *Sharded) NFA() *automata.NFA { return s.nfa }

// Shards returns the shard count K.
func (s *Sharded) Shards() int { return s.plan.Shards }

// TieredShards counts shards that carry a DFA fast-path tier.
func (s *Sharded) TieredShards() int {
	n := 0
	for i := range s.shards {
		if sel := s.shards[i].Sel; sel != nil && sel.DFA() != nil {
			n++
		}
	}
	return n
}

// DFAStates sums the dense-DFA state counts across all shards — the total
// fast-path coverage the per-shard budgets bought.
func (s *Sharded) DFAStates() int {
	total := 0
	for i := range s.shards {
		if t := s.shards[i].Sel; t != nil {
			total += t.Plan().DFAStates
		}
	}
	return total
}

// NFATierStates sums the automaton states executing on the bit-parallel
// NFA tier across all shards (every state of an untiered shard counts) —
// the slow-path residual the per-shard budgets did not buy out.
func (s *Sharded) NFATierStates() int {
	total := 0
	for i := range s.shards {
		if sel := s.shards[i].Sel; sel != nil {
			total += sel.Plan().NFAStates
		} else {
			total += len(s.shards[i].Orig)
		}
	}
	return total
}

// Run executes every live shard over the input in lockstep on one pooled
// core and returns the merged, sorted reports — identical to the unsharded
// engine's (components partition the state space, so per-shard report sets
// are disjoint) — with cycle-exact statistics. Like every other form's Run
// it is one core's worth of work on the calling goroutine: request
// concurrency belongs to the caller (the server's match pool). A goroutine
// per shard was measured and lost on every committed workload (DESIGN.md,
// "Sharded execution"). Safe for concurrent use.
func (s *Sharded) Run(input []byte) ([]sim.Report, sim.Stats) { return s.AppendRun(nil, input) }

// AppendRun is Run appending its reports to dst (sim.Pool.AppendRun); the
// shard metrics count this run's reports only.
func (s *Sharded) AppendRun(dst []sim.Report, input []byte) ([]sim.Report, sim.Stats) {
	reports, st := s.lockstep.AppendRun(dst, input)
	s.countRun(len(input), len(reports)-len(dst))
	return reports, st
}

func (s *Sharded) countRun(inputBytes, reports int) {
	if m := shardMetricsPtr.Load(); m != nil {
		live := 0
		for i := range s.shards {
			if len(s.shards[i].Orig) > 0 {
				live++
			}
		}
		m.scans.Add(1)
		m.bytes.Add(int64(inputBytes) * int64(live))
		m.reports.Add(int64(reports))
	}
}

// Lane returns the lockstep's one lane: the DFA walker, with the kernel
// beside it when a state is left to one, when any shard holds a DFA tier;
// the kernel alone otherwise.
func (s *Sharded) Lane() sim.Lane { return s.lockstep.Lane() }

// NewCore returns a fresh per-stream lockstep core over all shards; it
// implements sim.Core.
func (s *Sharded) NewCore() sim.Core { return s.lockstep.NewCore() }

// NewSession returns a streaming session over the sharded form. Many
// sessions may run concurrently over one Sharded; each owns its cores.
func (s *Sharded) NewSession(sink sim.ReportSink) *sim.Session { return s.lockstep.NewSession(sink) }

// Sealed is the serialization form of a shard partition: the plan plus
// each shard's sealed tier selection (nil entries for untiered or empty
// shards). Shard engines are rebuilt from the automaton and the plan on
// load, exactly like the tier plan's NFA side; the per-shard DFA tables
// ride along because they are the expensive part.
type Sealed struct {
	Plan  Plan
	Tiers []*dfa.Sealed
}

// Unseal reassembles a Sharded execution form from a sealed plan and the
// automaton it was planned for, checking the partition against the
// automaton's component structure and each shard's tier seal against the
// shard's components (dfa.UnsealComponents).
func Unseal(n *automata.NFA, s *Sealed) (*Sharded, error) {
	return UnsealShards(n, s, nil)
}

// UnsealShards is Unseal restricted to a subset of shard indices: only the
// kept shards' engines are built (nil keep = all). The others stay empty,
// so Run and the lockstep core skip them and the merged report stream
// covers exactly the kept shards — the worker side of cluster dispatch,
// where each process hosts the shards its topology domain was assigned
// and the frontend re-merges the disjoint streams. The whole partition is
// checked against the automaton, so a worker rejects an artifact whose
// partition no longer matches; a tier seal is checked only for a kept shard,
// so a worker does not check the tier plans of shards it does not host.
func UnsealShards(n *automata.NFA, s *Sealed, keep []int) (*Sharded, error) {
	parts, err := unsealParts(n, s, keep)
	if err != nil {
		return nil, err
	}
	l, err := dfa.Lockstep(n, parts)
	if err != nil {
		return nil, err
	}
	return &Sharded{nfa: n, plan: s.Plan, shards: parts, lockstep: l}, nil
}

// UnsealStates makes every check UnsealShards makes, with its errors, and
// returns the kept shards' states as the automaton's IDs, ascending, building
// no engine: the partition as a form that steps those states itself (the
// scored one) needs it.
func UnsealStates(n *automata.NFA, s *Sealed, keep []int) ([]automata.StateID, error) {
	parts, err := unsealParts(n, s, keep)
	if err != nil {
		return nil, err
	}
	var ids []automata.StateID
	for _, p := range parts {
		ids = append(ids, p.Orig...)
	}
	slices.Sort(ids)
	return ids, nil
}

// unsealParts checks the sealed partition against the automaton — validated
// and split into components once — and returns one part per shard, the kept
// shards' tier selections unsealed against their share of those components
// and the others left empty. This is the one check of a sealed partition,
// compiled or loaded; a shard's tier plan is checked only where the shard is
// kept.
func unsealParts(n *automata.NFA, s *Sealed, keep []int) ([]dfa.Part, error) {
	if err := n.Validate(); err != nil {
		return nil, fmt.Errorf("shard: invalid automaton: %w", err)
	}
	k := s.Plan.Shards
	if k < 1 {
		return nil, fmt.Errorf("shard: sealed plan has %d shards", k)
	}
	if len(s.Tiers) != 0 && len(s.Tiers) != k {
		return nil, fmt.Errorf("shard: sealed plan has %d shards but %d tier entries", k, len(s.Tiers))
	}
	ccs := n.ConnectedComponents()
	if len(ccs) != len(s.Plan.CCShard) {
		return nil, fmt.Errorf("shard: sealed plan has %d components, automaton has %d", len(s.Plan.CCShard), len(ccs))
	}
	if len(s.Plan.CCStates) != len(s.Plan.CCShard) {
		return nil, fmt.Errorf("shard: sealed plan has %d component sizes for %d components", len(s.Plan.CCStates), len(s.Plan.CCShard))
	}
	for i, cc := range ccs {
		if sh := s.Plan.CCShard[i]; sh < 0 || sh >= k {
			return nil, fmt.Errorf("shard: sealed component %d assigned to shard %d of %d", i, sh, k)
		}
		if s.Plan.CCStates[i] != len(cc) {
			return nil, fmt.Errorf("shard: sealed component %d has %d states, automaton has %d", i, s.Plan.CCStates[i], len(cc))
		}
	}

	kept := make([]bool, k)
	if keep == nil {
		for i := range kept {
			kept[i] = true
		}
	} else {
		for _, i := range keep {
			if i < 0 || i >= k {
				return nil, fmt.Errorf("shard: kept shard %d out of range [0, %d)", i, k)
			}
			kept[i] = true
		}
	}

	ids := shardIDs(ccs, s.Plan)
	// Each shard's components, renumbered in place within the shard: the
	// components of the shard's sub-automaton, in their order, since no
	// edge leaves a component and the renumbering keeps the order of IDs.
	local := make([]automata.StateID, n.NumStates())
	for _, list := range ids {
		for j, id := range list {
			local[id] = automata.StateID(j)
		}
	}
	shardCCs := make([][][]automata.StateID, k)
	for ci, cc := range ccs {
		for j, id := range cc {
			cc[j] = local[id]
		}
		shardCCs[s.Plan.CCShard[ci]] = append(shardCCs[s.Plan.CCShard[ci]], cc)
	}
	engines := make([]dfa.Part, k)
	for i := 0; i < k; i++ {
		var tier *dfa.Sealed
		if len(s.Tiers) != 0 {
			tier = s.Tiers[i]
		}
		if len(ids[i]) == 0 {
			if tier != nil {
				return nil, fmt.Errorf("shard: sealed shard %d is empty but carries a tier plan", i)
			}
			continue
		}
		if !kept[i] {
			continue // hosted by another worker; its engine is never built
		}
		engines[i].Orig = ids[i]
		if tier != nil {
			t, err := dfa.UnsealComponents(shardCCs[i], n.Bits, n.Stride, tier)
			if err != nil {
				return nil, fmt.Errorf("shard: shard %d tier does not unseal: %w", i, err)
			}
			engines[i].Sel = t
		}
	}
	return engines, nil
}
