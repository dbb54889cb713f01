// Package place maps automaton states onto Impala's G4 interconnect
// resources (Section 5.2.2): connected components are packed into
// group-of-four switch units, and a genetic algorithm (seeded with BFS
// labelling and assisted by a targeted repair heuristic) searches for an
// index assignment in which every transition lands on a covered switch
// coordinate — zero missing connections.
package place

import (
	"fmt"
	"math/rand"
	"sort"

	"impala/internal/automata"
	"impala/internal/interconnect"
	"impala/internal/obs"
	"impala/internal/par"
)

// Options tunes the placement search.
type Options struct {
	// Seed makes the search deterministic.
	Seed int64
	// Population is the GA population size (default 32).
	Population int
	// Generations bounds the GA (default 300).
	Generations int
	// RepairSweeps bounds the pre-GA hill-climbing repair (default 2000).
	RepairSweeps int
	// DisableGA turns off the genetic algorithm, leaving BFS seeding plus
	// repair only (the paper's BFS-labelling baseline for Figure 10).
	DisableGA bool
	// DisableRepair turns off the repair heuristic (pure GA).
	DisableRepair bool
	// NaiveSeed lays components out sequentially across the whole G4 in
	// BFS order, ignoring block boundaries — the paper's plain BFS
	// labelling of Figure 10(b), which generally leaves uncovered edges.
	NaiveSeed bool
	// Workers bounds the GA's per-generation worker pool: each generation's
	// children are constructed and fitness-evaluated concurrently, each from
	// its own RNG seeded serially from the master stream, so the placement
	// is byte-identical for every worker count (and deterministic for a
	// given Seed). 0 selects GOMAXPROCS.
	Workers int
	// Trace, when non-nil, records one span per bin placement (with state
	// count, uncovered transitions and whether the GA was needed) into the
	// compile trace. Tracing never changes the placement.
	Trace *obs.Trace
}

func (o Options) withDefaults() Options {
	if o.Population == 0 {
		o.Population = 32
	}
	if o.Generations == 0 {
		o.Generations = 300
	}
	if o.RepairSweeps == 0 {
		o.RepairSweeps = 2000
	}
	return o
}

// fabricGeom abstracts the switch fabric a bin is placed onto: the single
// G4 (1024 slots) or the hierarchical G16 extension (4096 slots, hyper
// switch between G4s).
type fabricGeom struct {
	slots   int
	covered func(a, b int) bool
	// liftWidth is the width of the block-prefix region that can route an
	// edge between the blocks of slots a and b: 64 port nodes within one
	// G4, 16 super port nodes across G4s.
	liftWidth func(a, b int) int
}

var g4Geom = fabricGeom{
	slots:   interconnect.G4Size,
	covered: interconnect.Covered,
	liftWidth: func(a, b int) int {
		return interconnect.PortNodes
	},
}

var g16Geom = fabricGeom{
	slots:   interconnect.G16Size,
	covered: interconnect.CoveredG16,
	liftWidth: func(a, b int) int {
		if a/interconnect.G4Size == b/interconnect.G4Size {
			return interconnect.PortNodes
		}
		return interconnect.SuperPortNodes
	},
}

func (g fabricGeom) blocks() int { return g.slots / interconnect.LocalSwitchSize }

// G4Placement is the assignment of states to one switch group's slots:
// 1024 for a G4, 4096 for a hierarchical G16 (Hierarchical=true).
type G4Placement struct {
	// Hierarchical marks a G16 group (len(Slots) == interconnect.G16Size).
	Hierarchical bool
	// Slots[i] is the state occupying the group-local index i, or -1.
	Slots []automata.StateID
	// Uncovered counts transitions this placement could not route (0 for a
	// valid placement).
	Uncovered int
	// Edges is the number of intra-G4 transitions routed.
	Edges int
	// States is the number of occupied slots.
	States int
}

// Placement is a full-automaton placement.
type Placement struct {
	G4s []*G4Placement
	// TotalUncovered is the sum of uncovered transitions (0 = success).
	TotalUncovered int
	// GAInvocations counts how many G4s needed the genetic algorithm.
	GAInvocations int
}

// Valid reports whether every transition was routed.
func (p *Placement) Valid() bool { return p.TotalUncovered == 0 }

// AvgStatesPerG4 returns the packing density (the §5.2.1 case-study metric).
func (p *Placement) AvgStatesPerG4() float64 {
	if len(p.G4s) == 0 {
		return 0
	}
	total := 0
	for _, g := range p.G4s {
		total += g.States
	}
	return float64(total) / float64(len(p.G4s))
}

// Place packs the automaton's connected components into G4s and labels the
// states so that all transitions are covered. Components larger than one
// G4 (1024 states) are placed on a hierarchical G16 group (the paper's
// higher-level-switch extension); components beyond 4096 are rejected.
func Place(n *automata.NFA, opts Options) (*Placement, error) {
	opts = opts.withDefaults()
	ccs := n.ConnectedComponents()
	var small, big [][]automata.StateID
	for _, cc := range ccs {
		switch {
		case len(cc) > interconnect.G16Size:
			return nil, fmt.Errorf("place: connected component with %d states exceeds G16 capacity %d", len(cc), interconnect.G16Size)
		case len(cc) > interconnect.G4Size:
			big = append(big, cc)
		default:
			small = append(small, cc)
		}
	}
	bins := packCCs(small)
	r := rand.New(rand.NewSource(opts.Seed))
	out := &Placement{}
	queue := bins
	for len(queue) > 0 {
		bin := queue[0]
		queue = queue[1:]
		sp := opts.Trace.Span("place/g4-bin", 0)
		gp, usedGA := placeBin(n, bin, g4Geom, r, opts)
		sp.End(map[string]any{
			"states": binStates(bin), "components": len(bin),
			"uncovered": gp.Uncovered, "ga": usedGA,
		})
		if usedGA {
			out.GAInvocations++
		}
		// Dense straddled components can be unroutable in a shared G4 (a
		// hub state's cross-block sources would exceed the 64 port nodes).
		// When the search cannot reach zero on a multi-component bin,
		// relax the packing: split the bin and try again with more room.
		if gp.Uncovered > 0 && len(bin) > 1 && !opts.DisableGA && !opts.DisableRepair && !opts.NaiveSeed {
			half := len(bin) / 2
			queue = append(queue, bin[:half], bin[half:])
			continue
		}
		out.G4s = append(out.G4s, gp)
		out.TotalUncovered += gp.Uncovered
	}
	// Oversized components: one per G16 group.
	for _, cc := range big {
		sp := opts.Trace.Span("place/g16-bin", 0)
		gp, usedGA := placeBin(n, [][]automata.StateID{cc}, g16Geom, r, opts)
		sp.End(map[string]any{"states": len(cc), "uncovered": gp.Uncovered, "ga": usedGA})
		gp.Hierarchical = true
		if usedGA {
			out.GAInvocations++
		}
		out.G4s = append(out.G4s, gp)
		out.TotalUncovered += gp.Uncovered
	}
	return out, nil
}

// binStates counts the states across a bin's components.
func binStates(bin [][]automata.StateID) int {
	total := 0
	for _, cc := range bin {
		total += len(cc)
	}
	return total
}

// packCCs first-fit-decreasing packs components into G4-sized bins, but
// block-aware: a component that fits one 256-state local switch must land
// in a bin that still has a block with that much room (otherwise it would
// be forced to straddle blocks and burn port nodes for no reason).
// Components larger than a block consume space greedily from the emptiest
// blocks of their bin.
func packCCs(ccs [][]automata.StateID) [][][]automata.StateID {
	order := make([]int, len(ccs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return len(ccs[order[a]]) > len(ccs[order[b]]) })
	var bins [][][]automata.StateID
	var blocks [][interconnect.LocalsPerG4]int // residual space per block

	fits := func(b int, size int) bool {
		if size <= interconnect.LocalSwitchSize {
			// Needs one block with enough room (best-fit).
			for _, r := range blocks[b] {
				if r >= size {
					return true
				}
			}
			return false
		}
		total := 0
		for _, r := range blocks[b] {
			total += r
		}
		return total >= size
	}
	takeStraddle := func(b int, size int) {
		// Drain roomiest blocks first.
		for size > 0 {
			big := 0
			for i := 1; i < interconnect.LocalsPerG4; i++ {
				if blocks[b][i] > blocks[b][big] {
					big = i
				}
			}
			used := blocks[b][big]
			if used > size {
				used = size
			}
			blocks[b][big] -= used
			size -= used
		}
	}
	take := func(b int, size int) {
		if size <= interconnect.LocalSwitchSize {
			// Best-fit block.
			best, bestR := -1, 1<<30
			for i, r := range blocks[b] {
				if r >= size && r < bestR {
					best, bestR = i, r
				}
			}
			blocks[b][best] -= size
			return
		}
		takeStraddle(b, size)
	}

	totalFits := func(b int, size int) bool {
		total := 0
		for _, r := range blocks[b] {
			total += r
		}
		return total >= size
	}
	for _, ci := range order {
		cc := ccs[ci]
		placed := false
		// Prefer a bin where the component fits a single block…
		for b := range bins {
			if fits(b, len(cc)) {
				bins[b] = append(bins[b], cc)
				take(b, len(cc))
				placed = true
				break
			}
		}
		// …but straddle blocks of an existing bin before opening a new one
		// (the paper's packing reaches ~930 states/G4 on EntityResolution
		// precisely by splitting components across local switches).
		if !placed {
			for b := range bins {
				if totalFits(b, len(cc)) {
					bins[b] = append(bins[b], cc)
					takeStraddle(b, len(cc))
					placed = true
					break
				}
			}
		}
		if !placed {
			bins = append(bins, [][]automata.StateID{cc})
			var fresh [interconnect.LocalsPerG4]int
			for i := range fresh {
				fresh[i] = interconnect.LocalSwitchSize
			}
			blocks = append(blocks, fresh)
			take(len(bins)-1, len(cc))
		}
	}
	return bins
}

// problem is the per-group labelling instance.
type problem struct {
	states []automata.StateID // dense index -> state
	edges  [][2]int           // dense index pairs
	geo    fabricGeom
}

func buildProblem(n *automata.NFA, bin [][]automata.StateID) *problem {
	p := &problem{}
	dense := map[automata.StateID]int{}
	for _, cc := range bin {
		for _, id := range cc {
			dense[id] = len(p.states)
			p.states = append(p.states, id)
		}
	}
	for _, cc := range bin {
		for _, id := range cc {
			for _, t := range n.States[id].Out {
				if dt, ok := dense[t]; ok {
					p.edges = append(p.edges, [2]int{dense[id], dt})
				}
			}
		}
	}
	return p
}

// individual is a candidate labelling: slotOf[denseIdx] = G4 slot, and the
// inverse occupant[slot] = denseIdx or -1.
type individual struct {
	slotOf   []int
	occupant []int
	fitness  int // uncovered edge count (lower is better)
}

func (ind *individual) clone() *individual {
	c := &individual{
		slotOf:   append([]int(nil), ind.slotOf...),
		occupant: append([]int(nil), ind.occupant...),
		fitness:  ind.fitness,
	}
	return c
}

func (ind *individual) eval(p *problem) {
	f := 0
	for _, e := range p.edges {
		if !p.geo.covered(ind.slotOf[e[0]], ind.slotOf[e[1]]) {
			f++
		}
	}
	ind.fitness = f
}

// swapSlots exchanges the contents of two slots (either may be empty) and
// keeps the maps in sync.
func (ind *individual) swapSlots(a, b int) {
	oa, ob := ind.occupant[a], ind.occupant[b]
	ind.occupant[a], ind.occupant[b] = ob, oa
	if oa >= 0 {
		ind.slotOf[oa] = b
	}
	if ob >= 0 {
		ind.slotOf[ob] = a
	}
}

// placeBin labels one switch group. Strategy: block-aware BFS seed, then
// targeted repair, then the genetic algorithm if violations remain.
func placeBin(n *automata.NFA, bin [][]automata.StateID, geo fabricGeom, r *rand.Rand, opts Options) (*G4Placement, bool) {
	p := buildProblem(n, bin)
	p.geo = geo
	var seedInd *individual
	if opts.NaiveSeed {
		seedInd = naiveSeed(n, p, bin)
	} else {
		seedInd = seed(n, p, bin)
	}
	seedInd.eval(p)

	best := seedInd
	if best.fitness > 0 && !opts.DisableRepair {
		repaired := repair(p, best.clone(), r, opts.RepairSweeps)
		if repaired.fitness < best.fitness {
			best = repaired
		}
	}
	usedGA := false
	if best.fitness > 0 && !opts.DisableGA {
		usedGA = true
		evolved := evolve(p, best, r, opts)
		if evolved.fitness < best.fitness {
			best = evolved
		}
	}

	gp := &G4Placement{
		Slots:     make([]automata.StateID, geo.slots),
		Uncovered: best.fitness,
		Edges:     len(p.edges),
		States:    len(p.states),
	}
	for i := range gp.Slots {
		gp.Slots[i] = -1
	}
	for di, slot := range best.slotOf {
		gp.Slots[slot] = p.states[di]
	}
	return gp, usedGA
}

// naiveSeed assigns plain sequential BFS labels across the whole G4 with
// no block awareness.
func naiveSeed(n *automata.NFA, p *problem, bin [][]automata.StateID) *individual {
	ind := &individual{
		slotOf:   make([]int, len(p.states)),
		occupant: make([]int, p.geo.slots),
	}
	for i := range ind.occupant {
		ind.occupant[i] = -1
	}
	dense := map[automata.StateID]int{}
	for i, id := range p.states {
		dense[id] = i
	}
	slot := 0
	for _, cc := range bin {
		for _, id := range n.BFSOrder(cc) {
			ind.slotOf[dense[id]] = slot
			ind.occupant[slot] = dense[id]
			slot++
		}
	}
	return ind
}

// seed produces the initial labelling: components in BFS order, each
// placed contiguously, preferring to start a component at the beginning of a
// block when it fits entirely inside one (making all its edges local).
func seed(n *automata.NFA, p *problem, bin [][]automata.StateID) *individual {
	ind := &individual{
		slotOf:   make([]int, len(p.states)),
		occupant: make([]int, p.geo.slots),
	}
	for i := range ind.occupant {
		ind.occupant[i] = -1
	}
	dense := map[automata.StateID]int{}
	for i, id := range p.states {
		dense[id] = i
	}

	// Sort components descending so big ones grab whole blocks first.
	order := make([]int, len(bin))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return len(bin[order[a]]) > len(bin[order[b]]) })

	// Fill each block's non-port-node region (64..255) before touching the
	// port nodes, so PN slots stay free for the repair pass to lift
	// cross-block edges onto.
	nBlocks := p.geo.blocks()
	nonPNFree := make([]int, nBlocks) // cursor in [64,256)
	pnFree := make([]int, nBlocks)    // cursor in [0,64)
	for b := range nonPNFree {
		nonPNFree[b] = interconnect.PortNodes
	}
	blockSpace := func(b int) int {
		return (interconnect.LocalSwitchSize - nonPNFree[b]) + (interconnect.PortNodes - pnFree[b])
	}
	nextSlot := func(b int) int {
		base := b * interconnect.LocalSwitchSize
		if nonPNFree[b] < interconnect.LocalSwitchSize {
			s := base + nonPNFree[b]
			nonPNFree[b]++
			return s
		}
		if pnFree[b] < interconnect.PortNodes {
			s := base + pnFree[b]
			pnFree[b]++
			return s
		}
		panic("place: block overflow")
	}

	for _, ci := range order {
		cc := bin[ci]
		orderIDs := n.BFSOrder(cc)
		// Choose the block with the least space that still fits (best fit);
		// if none fits, straddle starting from the emptiest block.
		bestBlock, bestSpace := -1, 1<<30
		for b := 0; b < nBlocks; b++ {
			if sp := blockSpace(b); sp >= len(cc) && sp < bestSpace {
				bestBlock, bestSpace = b, sp
			}
		}
		if bestBlock >= 0 {
			for _, id := range orderIDs {
				slot := nextSlot(bestBlock)
				ind.slotOf[dense[id]] = slot
				ind.occupant[slot] = dense[id]
			}
			continue
		}
		// Straddle: fill contiguously in BFS order, moving to the emptiest
		// block whenever the current one fills. BFS keeps most edges within
		// a block; the repair pass then lifts the cut edges onto port nodes.
		cur := 0
		for k := 1; k < nBlocks; k++ {
			if blockSpace(k) > blockSpace(cur) {
				cur = k
			}
		}
		for _, id := range orderIDs {
			if blockSpace(cur) == 0 {
				cur = 0
				for k := 1; k < nBlocks; k++ {
					if blockSpace(k) > blockSpace(cur) {
						cur = k
					}
				}
				if blockSpace(cur) == 0 {
					panic("place: bin overflow")
				}
			}
			slot := nextSlot(cur)
			ind.slotOf[dense[id]] = slot
			ind.occupant[slot] = dense[id]
		}
	}
	return ind
}

// repair hill-climbs uncovered edges onto the fabric. The central fact it
// exploits: intra-block pairs are always covered, so lifting a cross-block
// edge's endpoints onto port nodes of their *own* blocks can only disturb
// other cross-block edges (of the displaced occupants), never local ones.
// Moves that worsen fitness are reverted.
func repair(p *problem, ind *individual, r *rand.Rand, sweeps int) *individual {
	const blk = interconnect.LocalSwitchSize
	// hasCross reports whether the state in a slot (if any) currently has a
	// cross-block edge — displacing such an occupant off a PN slot is risky.
	adj := make([][]int, len(ind.slotOf))
	for _, e := range p.edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	hasCross := func(slot int) bool {
		o := ind.occupant[slot]
		if o < 0 {
			return false
		}
		for _, nb := range adj[o] {
			if ind.slotOf[nb]/blk != slot/blk {
				return true
			}
		}
		return false
	}
	// pnSlotFor picks a routable-prefix slot in the same block as src: an
	// empty one, then one whose occupant has no cross-block edges, then
	// random. width is 64 (port nodes) for edges within one G4 and 16
	// (super port nodes) for edges crossing G4s of a G16.
	pnSlotFor := func(src, width int) int {
		base := (src / blk) * blk
		start := r.Intn(width)
		for k := 0; k < width; k++ {
			s := base + (start+k)%width
			if ind.occupant[s] < 0 {
				return s
			}
		}
		for k := 0; k < width; k++ {
			s := base + (start+k)%width
			if !hasCross(s) {
				return s
			}
		}
		return base + start
	}

	for s := 0; s < sweeps && ind.fitness > 0; s++ {
		// Find an uncovered edge (scan from a random start).
		var bad [2]int
		found := false
		start := r.Intn(len(p.edges))
		for k := 0; k < len(p.edges); k++ {
			e := p.edges[(start+k)%len(p.edges)]
			if !p.geo.covered(ind.slotOf[e[0]], ind.slotOf[e[1]]) {
				bad, found = e, true
				break
			}
		}
		if !found {
			break
		}
		before := ind.fitness
		var undo [][2]int
		apply := func(a, b int) {
			if a != b {
				ind.swapSlots(a, b)
				undo = append(undo, [2]int{a, b})
			}
		}
		su, sv := ind.slotOf[bad[0]], ind.slotOf[bad[1]]
		width := p.geo.liftWidth(su, sv)
		if r.Intn(4) == 0 {
			// Occasionally try making the edge local instead: move u into
			// v's block (random slot).
			apply(su, (sv/blk)*blk+r.Intn(blk))
		} else {
			if su%blk >= width {
				apply(su, pnSlotFor(su, width))
			}
			sv = ind.slotOf[bad[1]]
			if sv%blk >= width {
				apply(sv, pnSlotFor(sv, width))
			}
		}
		ind.eval(p)
		if ind.fitness > before {
			for i := len(undo) - 1; i >= 0; i-- {
				ind.swapSlots(undo[i][0], undo[i][1])
			}
			ind.fitness = before
		}
	}
	return ind
}

// evolve runs the genetic algorithm: tournament selection, ordered
// crossover on the slot sequence, swap + targeted mutation.
//
// Fitness evaluation dominates the GA's cost (every child scans all edges,
// and a quarter of the children take a 50-sweep repair, each sweep another
// full eval), so each generation constructs and evaluates its children on a
// bounded worker pool. Determinism is preserved by splitting the randomness:
// parent selection and one child seed per slot are drawn serially from the
// master stream, then each child runs crossover/mutation/repair on its own
// RNG (a childRand) — the resulting population is byte-identical for every
// worker count.
func evolve(p *problem, seedInd *individual, r *rand.Rand, opts Options) *individual {
	pop := make([]*individual, opts.Population)
	pop[0] = seedInd.clone()
	for i := 1; i < len(pop); i++ {
		ind := seedInd.clone()
		// Random perturbation for diversity.
		for k := 0; k < 1+r.Intn(32); k++ {
			ind.swapSlots(r.Intn(p.geo.slots), r.Intn(p.geo.slots))
		}
		ind.eval(p)
		pop[i] = ind
	}
	best := pop[0].clone()
	for _, ind := range pop {
		if ind.fitness < best.fitness {
			best = ind.clone()
		}
	}

	tournament := func() *individual {
		a, b := pop[r.Intn(len(pop))], pop[r.Intn(len(pop))]
		if a.fitness <= b.fitness {
			return a
		}
		return b
	}

	type brood struct {
		a, b *individual // parents (from the previous generation, read-only)
		seed int64       // child RNG seed
	}
	for gen := 0; gen < opts.Generations && best.fitness > 0; gen++ {
		next := make([]*individual, len(pop))
		next[0] = best.clone() // elitism
		// Serial phase: draw parents and per-child seeds from the master
		// stream (tournament reads only the previous generation).
		broods := make([]brood, len(pop)-1)
		for i := range broods {
			broods[i] = brood{a: tournament(), b: tournament(), seed: r.Int63()}
		}
		// Parallel phase: construct and evaluate every child on its own RNG.
		// A nil trace keeps generations span-free (they would flood the
		// document) while still feeding the pool-utilization counters when
		// par.EnableMetrics is on.
		par.TraceFor(nil, "place/ga-generation", opts.Workers, len(broods), func(i int) {
			cr := childRand(broods[i].seed)
			child := orderedCrossover(broods[i].a, broods[i].b, cr)
			mutate(p, child, cr)
			child.eval(p)
			// Cheap local improvement on the child.
			if child.fitness > 0 && cr.Intn(4) == 0 {
				child = repair(p, child, cr, 50)
			}
			next[i+1] = child
		})
		for _, child := range next[1:] {
			if child.fitness < best.fitness {
				best = child.clone()
			}
		}
		pop = next
	}
	return best
}

// childRand is the generator one GA child draws from, seeded from the
// master stream. Its source is SplitMix64, one word of state: math/rand's
// default source fills a 607-word table on every seeding, which cost more
// than building and scoring a small placement's child.
func childRand(seed int64) *rand.Rand {
	s := splitMix64(seed)
	return rand.New(&s)
}

// splitMix64 is the SplitMix64 generator as a rand.Source64.
type splitMix64 uint64

func (s *splitMix64) Uint64() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (s *splitMix64) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *splitMix64) Seed(seed int64) { *s = splitMix64(seed) }

// orderedCrossover swaps a random interval of the slot sequence between two
// parents while keeping every state placed exactly once (OX on the
// occupant array, empties included as distinct pseudo-elements).
func orderedCrossover(a, b *individual, r *rand.Rand) *individual {
	n := len(a.occupant)
	lo := r.Intn(n)
	hi := lo + r.Intn(n-lo)
	child := a.clone()
	// Take b's occupants on [lo,hi]: for each state there, swap it into
	// place in the child.
	for s := lo; s <= hi; s++ {
		want := b.occupant[s]
		if want < 0 || child.occupant[s] == want {
			continue
		}
		child.swapSlots(s, child.slotOf[want])
	}
	return child
}

func mutate(p *problem, ind *individual, r *rand.Rand) {
	n := p.geo.slots
	for k := 0; k < 1+r.Intn(4); k++ {
		if len(p.edges) > 0 && r.Intn(2) == 0 {
			// Targeted: move an endpoint of a random edge onto a port node
			// of a random block.
			e := p.edges[r.Intn(len(p.edges))]
			end := e[r.Intn(2)]
			blk := r.Intn(p.geo.blocks())
			dst := blk*interconnect.LocalSwitchSize + r.Intn(interconnect.PortNodes)
			ind.swapSlots(ind.slotOf[end], dst)
		} else {
			ind.swapSlots(r.Intn(n), r.Intn(n))
		}
	}
}
