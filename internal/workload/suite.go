// Package workload provides the 21-benchmark evaluation suite. The paper
// evaluates on ANMLZoo and the Becchi Regex suite; those corpora are not
// redistributable here, so each benchmark is regenerated synthetically from
// its published structure (Table 2: state count, transition count, average
// node degree, largest connected component, family) and the Figure 2
// matching-symbol distribution (≈73% single-symbol states, ≈86% within 8
// symbols). The mesh benchmarks (Hamming, Levenshtein) are real
// approximate-matching mesh automata; the ring benchmarks are real rings;
// regex families are seeded pattern grammars compiled by the regexc front
// end. Generators are deterministic given a seed.
package workload

import (
	"fmt"
	"math/rand"

	"impala/internal/automata"
)

// Family classifies a benchmark like Table 2.
type Family string

const (
	FamilyRegex     Family = "Regex"
	FamilyMesh      Family = "Mesh"
	FamilyWidget    Family = "Widget"
	FamilySynthetic Family = "Synthetic"
)

// Benchmark describes one suite entry.
type Benchmark struct {
	Name   string
	Family Family
	// Paper-reported full-size statistics (Table 2).
	PaperStates      int
	PaperTransitions int
	PaperAvgDegree   float64
	PaperLargestCC   int
	// gen builds an instance targeting about targetStates states.
	gen func(targetStates int, r *rand.Rand) *automata.NFA
}

// Generate builds the benchmark automaton at the given scale (1.0 = paper
// size) deterministically from the seed.
func (b Benchmark) Generate(scale float64, seed int64) (*automata.NFA, error) {
	if scale <= 0 {
		return nil, fmt.Errorf("workload: scale must be positive, got %v", scale)
	}
	target := int(float64(b.PaperStates) * scale)
	if target < 8 {
		target = 8
	}
	r := rand.New(rand.NewSource(seed ^ int64(len(b.Name))<<32 ^ hashName(b.Name)))
	n := b.gen(target, r)
	n.DedupEdges()
	if err := n.Validate(); err != nil {
		return nil, fmt.Errorf("workload: %s generator produced invalid automaton: %w", b.Name, err)
	}
	return n, nil
}

func hashName(s string) int64 {
	var h int64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= int64(s[i])
		h *= 1099511628211
	}
	return h
}

// Suite returns all 21 benchmarks in Table 2 order.
func Suite() []Benchmark {
	return []Benchmark{
		{Name: "Brill", Family: FamilyRegex, PaperStates: 42658, PaperTransitions: 62054, PaperAvgDegree: 2.9, PaperLargestCC: 67, gen: genBrill},
		{Name: "Bro217", Family: FamilyRegex, PaperStates: 2312, PaperTransitions: 2130, PaperAvgDegree: 1.8, PaperLargestCC: 84, gen: genBro},
		{Name: "Dotstar03", Family: FamilyRegex, PaperStates: 12144, PaperTransitions: 12264, PaperAvgDegree: 2.0, PaperLargestCC: 92, gen: genDotstar(3)},
		{Name: "Dotstar06", Family: FamilyRegex, PaperStates: 12640, PaperTransitions: 12939, PaperAvgDegree: 2.0, PaperLargestCC: 104, gen: genDotstar(6)},
		{Name: "Dotstar09", Family: FamilyRegex, PaperStates: 12431, PaperTransitions: 12907, PaperAvgDegree: 2.0, PaperLargestCC: 104, gen: genDotstar(9)},
		{Name: "ExactMatch", Family: FamilyRegex, PaperStates: 12439, PaperTransitions: 12144, PaperAvgDegree: 1.9, PaperLargestCC: 87, gen: genExactMatch},
		{Name: "PowerEN", Family: FamilyRegex, PaperStates: 40513, PaperTransitions: 40271, PaperAvgDegree: 1.9, PaperLargestCC: 52, gen: genPowerEN},
		{Name: "Protomata", Family: FamilyRegex, PaperStates: 42009, PaperTransitions: 41635, PaperAvgDegree: 1.9, PaperLargestCC: 123, gen: genProtomata},
		{Name: "Ranges05", Family: FamilyRegex, PaperStates: 12621, PaperTransitions: 12472, PaperAvgDegree: 1.9, PaperLargestCC: 94, gen: genRanges(0.05)},
		{Name: "Ranges1", Family: FamilyRegex, PaperStates: 12464, PaperTransitions: 12406, PaperAvgDegree: 1.9, PaperLargestCC: 96, gen: genRanges(0.10)},
		{Name: "Snort", Family: FamilyRegex, PaperStates: 100500, PaperTransitions: 81380, PaperAvgDegree: 1.6, PaperLargestCC: 222, gen: genSnort},
		{Name: "TCP", Family: FamilyRegex, PaperStates: 19704, PaperTransitions: 21164, PaperAvgDegree: 2.1, PaperLargestCC: 391, gen: genTCP},
		{Name: "ClamAV", Family: FamilyRegex, PaperStates: 49538, PaperTransitions: 49736, PaperAvgDegree: 2.0, PaperLargestCC: 515, gen: genClamAV},
		{Name: "Hamming", Family: FamilyMesh, PaperStates: 11346, PaperTransitions: 19251, PaperAvgDegree: 3.3, PaperLargestCC: 122, gen: genHamming},
		{Name: "Levenshtein", Family: FamilyMesh, PaperStates: 2784, PaperTransitions: 9096, PaperAvgDegree: 6.5, PaperLargestCC: 116, gen: genLevenshtein},
		{Name: "Fermi", Family: FamilyWidget, PaperStates: 40783, PaperTransitions: 57576, PaperAvgDegree: 2.8, PaperLargestCC: 17, gen: genFermi},
		{Name: "RandomForest", Family: FamilyWidget, PaperStates: 33220, PaperTransitions: 33220, PaperAvgDegree: 2.0, PaperLargestCC: 20, gen: genRandomForest},
		{Name: "SPM", Family: FamilyWidget, PaperStates: 69029, PaperTransitions: 211050, PaperAvgDegree: 6.1, PaperLargestCC: 20, gen: genSPM},
		{Name: "EntityResolution", Family: FamilyWidget, PaperStates: 95136, PaperTransitions: 219264, PaperAvgDegree: 4.6, PaperLargestCC: 96, gen: genEntityResolution},
		{Name: "BlockRings", Family: FamilySynthetic, PaperStates: 44352, PaperTransitions: 44352, PaperAvgDegree: 2.0, PaperLargestCC: 231, gen: genBlockRings},
		{Name: "CoreRings", Family: FamilySynthetic, PaperStates: 48002, PaperTransitions: 48002, PaperAvgDegree: 2.0, PaperLargestCC: 2, gen: genCoreRings},
	}
}

// Get returns the benchmark with the given name.
func Get(name string) (Benchmark, bool) {
	for _, b := range Suite() {
		if b.Name == name {
			return b, true
		}
	}
	return Benchmark{}, false
}

// Names returns all benchmark names, sorted as in Table 2.
func Names() []string {
	s := Suite()
	out := make([]string, len(s))
	for i, b := range s {
		out[i] = b.Name
	}
	return out
}

// Input generates a deterministic input stream of the given length for a
// benchmark automaton: mostly symbols drawn from the automaton's own match
// sets (so activity and reports actually occur) mixed with uniform noise.
func Input(n *automata.NFA, length int, seed int64) []byte {
	r := rand.New(rand.NewSource(seed))
	var pool []byte
	for i := 0; i < len(n.States) && len(pool) < 4096; i++ {
		for _, rect := range n.States[i].Match {
			vals := rect[0].Values()
			if len(vals) > 3 {
				vals = vals[:3]
			}
			pool = append(pool, vals...)
		}
	}
	if len(pool) == 0 {
		pool = []byte{'a'}
	}
	out := make([]byte, length)
	for i := range out {
		if r.Intn(5) == 0 {
			out[i] = byte(r.Intn(256))
		} else {
			out[i] = pool[r.Intn(len(pool))]
		}
	}
	return out
}
