// alignment is the scored-execution demo: DNA reads ranked by alignment
// quality against a reference 12-mer. An edit-distance mesh (distance <= 2)
// carries per-transition alignment costs — +1 per matched base, -1 per
// substitution, -2 per gap — and the scored engine accumulates the best
// max-plus score over every alignment path, reporting only reads whose
// score clears the threshold. With threshold 9, perfect (12) and
// single-edit reads (9-10) rank; two-edit reads (<= 8) are filtered out.
//
// The same machine then scores a chunked stream: on a machine with a weight
// table, NewStream emits final (window-merged) scores incrementally.
package main

import (
	"fmt"
	"log"
	"sort"

	"impala"
	"impala/internal/workload"
)

func main() {
	reference := []byte("ACGTTGCAACGT")
	const editDistance = 2
	const threshold = 9 // (L-1) matches + one gap: the weakest single-edit read

	nfa, weights, err := workload.ScoredLevenshtein(
		[][]byte{reference}, editDistance, workload.DefaultAlignCosts, threshold)
	if err != nil {
		log.Fatal(err)
	}
	cfg := impala.DefaultConfig()
	cfg.Score = weights
	m, err := impala.CompileAutomaton(nfa, cfg)
	if err != nil {
		log.Fatal(err)
	}
	si := m.ScoreInfo()
	fmt.Printf("alignment engine: reference %s, edit distance <= %d, threshold %g\n",
		reference, editDistance, si.Threshold)
	fmt.Printf("  %d states, %d weighted edges, %d with mixed in-edge weights\n\n",
		m.Model().States, si.Edges, si.ScalarStates)

	// Sequenced reads at known edit distances from the reference.
	reads := []struct {
		name string
		seq  []byte
	}{
		{"exact", []byte("ACGTTGCAACGT")},     // the reference itself
		{"one-sub", []byte("ACGTTGCAACGA")},   // last base substituted
		{"one-del", []byte("ACGTGCAACGT")},    // base 5 deleted
		{"two-sub", []byte("AGGTTGCATCGT")},   // two substitutions
		{"unrelated", []byte("TTTTAAAATTTT")}, // no alignment at all
	}

	type ranked struct {
		name  string
		seq   []byte
		score float64
		hit   bool
	}
	var board []ranked
	for _, r := range reads {
		best := ranked{name: r.name, seq: r.seq}
		for _, sm := range m.Match(r.seq) {
			if !best.hit || sm.Score > best.score {
				best.score, best.hit = sm.Score, true
			}
		}
		board = append(board, best)
	}
	sort.SliceStable(board, func(i, j int) bool {
		if board[i].hit != board[j].hit {
			return board[i].hit
		}
		return board[i].score > board[j].score
	})
	rank := 0
	for _, b := range board {
		if b.hit {
			rank++
			fmt.Printf("rank %d: %-9s %-12s score %g\n", rank, b.name, b.seq, b.score)
		} else {
			fmt.Printf("filtered: %-9s %-12s below threshold\n", b.name, b.seq)
		}
	}

	// The same machine scores a chunked read stream: spacers of T's between
	// reads, scores emitted as each report's merge window closes.
	fmt.Println()
	stream := []byte("TTTTTTTT" + "ACGTTGCAACGT" + "TTTTTTTT" + "ACGTTGCAACGA" + "TTTTTTTT")
	st := m.NewStream(func(mt impala.Match) {
		fmt.Printf("stream: read ending at byte %d, score %g\n", mt.End, mt.Score)
	})
	for i := 0; i < len(stream); i += 7 {
		end := i + 7
		if end > len(stream) {
			end = len(stream)
		}
		st.Feed(stream[i:end])
	}
	st.Flush()
}
