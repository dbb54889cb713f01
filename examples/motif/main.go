// motif is a bioinformatics example: approximate motif search over a DNA
// sequence using a Hamming-distance mesh automaton (the Hamming family of
// ANMLZoo), compiled through the full Impala pipeline and matched with
// Match. It demonstrates CompileAutomaton — feeding the toolchain a
// hand-built automaton instead of regexes.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strings"

	"impala"
	"impala/internal/automata"
	"impala/internal/bitvec"
)

// addHammingMotif builds a distance-d mesh for the motif: state m[e][i]
// consumes motif[i] with e mismatches so far; x[e][i] consumes a mismatch.
func addHammingMotif(n *automata.NFA, motif string, d, code int) {
	L := len(motif)
	match := make([][]automata.StateID, d+1)
	miss := make([][]automata.StateID, d+1)
	for e := 0; e <= d; e++ {
		match[e] = make([]automata.StateID, L)
		miss[e] = make([]automata.StateID, L)
		for i := 0; i < L; i++ {
			kind := automata.StartNone
			if i == 0 && e == 0 {
				kind = automata.StartAllInput
			}
			match[e][i] = n.AddState(automata.State{
				Match:      automata.MatchSet{automata.Rect{bitvec.ByteOf(motif[i])}},
				Start:      kind,
				Report:     i == L-1,
				ReportCode: code,
			})
			miss[e][i] = n.AddState(automata.State{
				Match:      automata.MatchSet{automata.Rect{bitvec.ByteOf(motif[i]).Complement()}},
				Start:      kind,
				Report:     i == L-1 && e > 0,
				ReportCode: code,
			})
		}
	}
	for e := 0; e <= d; e++ {
		for i := 0; i < L-1; i++ {
			n.AddEdge(match[e][i], match[e][i+1])
			n.AddEdge(miss[e][i], match[e][i+1])
			if e < d {
				n.AddEdge(match[e][i], miss[e+1][i+1])
				n.AddEdge(miss[e][i], miss[e+1][i+1])
			}
		}
	}
}

func main() {
	motifs := []string{"ACGTACGTAC", "TTGACAGCTA", "GGGCCCTTTA"}
	const maxMismatches = 2

	nfa := automata.New(8, 1)
	for code, motif := range motifs {
		addHammingMotif(nfa, motif, maxMismatches, code)
	}

	m, err := impala.CompileAutomaton(nfa, impala.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	md := m.Model()
	fmt.Printf("motif engine: %d motifs (±%d mismatches), %d -> %d STEs, %.0f Gbps\n\n",
		len(motifs), maxMismatches, md.OriginalStates, md.States, md.ThroughputGbps)

	// Random genome with planted approximate occurrences.
	r := rand.New(rand.NewSource(7))
	const bases = "ACGT"
	var genome strings.Builder
	plant := func(motif string, mismatches int) {
		b := []byte(motif)
		for k := 0; k < mismatches; k++ {
			i := r.Intn(len(b))
			b[i] = bases[r.Intn(4)]
		}
		genome.Write(b)
	}
	for i := 0; i < 60; i++ {
		for k := 0; k < 50; k++ {
			genome.WriteByte(bases[r.Intn(4)])
		}
		if i%7 == 0 {
			plant(motifs[r.Intn(len(motifs))], r.Intn(3))
		}
	}

	hits := map[int]int{}
	for _, match := range m.Match([]byte(genome.String())) {
		hits[match.Pattern]++
	}
	for code, motif := range motifs {
		fmt.Printf("motif %s: %d approximate occurrence(s)\n", motif, hits[code])
	}
}
