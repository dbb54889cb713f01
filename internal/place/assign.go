package place

import (
	"math/rand"

	"impala/internal/par"
)

// AssignSpec is a generic k-way assignment instance: Items indices are
// mapped onto Bins, and Cost prices a candidate assignment. It is the
// slot-labelling GA's engine lifted off the switch fabric, so higher layers
// (the cluster-topology shard placer) reuse the same search machinery the
// G4 placer runs — tournament selection, elitism, perturbation seeding, and
// the serial-randomness/parallel-evaluation split that keeps results
// byte-identical for every worker count.
type AssignSpec struct {
	// Items is the number of things being assigned.
	Items int
	// Bins is the number of assignment targets; every gene stays in
	// [0, Bins).
	Bins int
	// Cost prices an assignment as a vector compared lexicographically
	// (first differing element decides; shorter vectors must not happen).
	// It must be pure and deterministic: the GA calls it from concurrent
	// workers on private slices.
	Cost func(assign []int) []float64
}

// assignee is one candidate assignment with its cached cost vector.
type assignee struct {
	assign []int
	cost   []float64
}

func cloneAssign(a []int) []int { return append([]int(nil), a...) }

// lessCost compares cost vectors lexicographically.
func lessCost(a, b []float64) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// EvolveAssign refines a seed assignment under the spec's cost. The search
// mirrors evolve(): elitism, tournament selection over the previous
// generation, uniform crossover, reassignment mutation. Parent draws and
// per-child RNG seeds come serially off the master stream while children
// are constructed and priced concurrently on a pool bounded by
// opts.Workers, so the result is byte-identical for any worker count and
// deterministic for a given opts.Seed. The returned slice is a copy; the
// seed is never mutated.
func EvolveAssign(spec AssignSpec, seed []int, opts Options) []int {
	opts = opts.withDefaults()
	if spec.Items == 0 || spec.Bins <= 1 {
		return cloneAssign(seed)
	}
	r := rand.New(rand.NewSource(opts.Seed))
	eval := func(a []int) *assignee { return &assignee{assign: a, cost: spec.Cost(a)} }

	pop := make([]*assignee, opts.Population)
	pop[0] = eval(cloneAssign(seed))
	for i := 1; i < len(pop); i++ {
		a := cloneAssign(seed)
		for k := 0; k < 1+r.Intn(4); k++ {
			a[r.Intn(spec.Items)] = r.Intn(spec.Bins)
		}
		pop[i] = eval(a)
	}
	best := pop[0]
	for _, ind := range pop {
		if lessCost(ind.cost, best.cost) {
			best = ind
		}
	}
	best = eval(cloneAssign(best.assign))

	tournament := func() *assignee {
		a, b := pop[r.Intn(len(pop))], pop[r.Intn(len(pop))]
		if lessCost(b.cost, a.cost) {
			return b
		}
		return a
	}

	type brood struct {
		a, b *assignee
		seed int64
	}
	for gen := 0; gen < opts.Generations; gen++ {
		next := make([]*assignee, len(pop))
		next[0] = eval(cloneAssign(best.assign)) // elitism
		broods := make([]brood, len(pop)-1)
		for i := range broods {
			broods[i] = brood{a: tournament(), b: tournament(), seed: r.Int63()}
		}
		par.TraceFor(nil, "place/assign-generation", opts.Workers, len(broods), func(i int) {
			cr := childRand(broods[i].seed)
			child := cloneAssign(broods[i].a.assign)
			for g := range child {
				if cr.Intn(2) == 1 {
					child[g] = broods[i].b.assign[g]
				}
			}
			for k := 0; k < 1+cr.Intn(3); k++ {
				child[cr.Intn(spec.Items)] = cr.Intn(spec.Bins)
			}
			next[i+1] = eval(child)
		})
		for _, child := range next[1:] {
			if lessCost(child.cost, best.cost) {
				best = child
			}
		}
		pop = next
	}
	return cloneAssign(best.assign)
}
