package workload

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"impala/internal/automata"
	"impala/internal/core"
	"impala/internal/score"
	"impala/internal/sim"
)

// The binary generators and the scored builders share one structural
// definition; a zero cost table must reproduce the unweighted mesh exactly,
// with an all-zero weight table.
func TestScoredZeroCostsMatchBinaryGenerators(t *testing.T) {
	pats := [][]byte{[]byte("ACGTACGTAC"), []byte("TTGACCATGA")}
	for _, tc := range []struct {
		name  string
		bin   func(n *automata.NFA, pat []byte, d, code int)
		build func(pats [][]byte, d int, c Costs, threshold float64) (*automata.NFA, *automata.Weights, error)
	}{
		{"Hamming", addHamming, ScoredHamming},
		{"Levenshtein", addLevenshtein, ScoredLevenshtein},
	} {
		bin := automata.New(8, 1)
		for k, p := range pats {
			tc.bin(bin, p, 2, k+1)
		}
		bin.DedupEdges()
		n, w, err := tc.build(pats, 2, Costs{}, 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		db, _ := json.Marshal(bin)
		ds, _ := json.Marshal(n)
		if string(db) != string(ds) {
			t.Fatalf("%s: scored mesh structure diverged from binary generator", tc.name)
		}
		for i, row := range w.Edge {
			for j, v := range row {
				if v != 0 {
					t.Fatalf("%s: state %d edge %d: zero costs produced weight %g", tc.name, i, j, v)
				}
			}
			if w.Start[i] != 0 {
				t.Fatalf("%s: state %d: zero costs produced start weight %g", tc.name, i, w.Start[i])
			}
		}
	}
}

// bestOf groups threshold-clearing reports by (BitPos, Code) and keeps the
// maximum score — the quantity the compile pipeline preserves exactly.
func bestOf(reports []sim.Report) map[[2]int]float64 {
	best := make(map[[2]int]float64)
	for _, r := range reports {
		noteBest(best, r.BitPos, r.Code, r.Score)
	}
	return best
}

func noteBest(best map[[2]int]float64, bitPos, code int, v float64) {
	k := [2]int{bitPos, code}
	if b, ok := best[k]; !ok || v > b {
		best[k] = v
	}
}

// endBitPos converts a 0-based input byte index of a report's last consumed
// byte into the engine's bit position (stride-1 states report with offset 1:
// the end-exclusive byte boundary).
func endBitPos(t int) int { return (t + 1) * 8 }

// oracleHamming scores every length-L window directly from the definition:
// each position contributes Match or Mismatch, a path exists iff at most d
// positions past the first mismatch (the mesh's level-0 miss start makes a
// first-position mismatch budget-free).
func oracleHamming(input []byte, pats [][]byte, d int, c Costs) map[[2]int]float64 {
	best := make(map[[2]int]float64)
	for k, pat := range pats {
		L, code := len(pat), k+1
		for s := 0; s+L <= len(input); s++ {
			sum, mm := 0.0, 0
			for i := 0; i < L; i++ {
				if input[s+i] == pat[i] {
					sum += c.Match
				} else {
					sum += c.Mismatch
					if i > 0 {
						mm++
					}
				}
			}
			if mm <= d {
				noteBest(best, endBitPos(s+L-1), code, sum)
			}
		}
	}
	return best
}

// oracleLevenshtein is an independent max-plus DP over the alignment
// semantics the mesh encodes: an alignment begins by consuming pat[0]
// exactly, advances by exact matches (Match), substitutions (Mismatch),
// insertions (Gap), or single-character deletions that skip one pattern
// position and land on an exact consume (Gap+Match); at most d error
// operations; it reports when position L-1 is consumed (by an error symbol
// only if at least one error occurred). The DP never touches the automaton —
// it is the brute-force edit-distance reference the engine must reproduce.
func oracleLevenshtein(input []byte, pats [][]byte, d int, c Costs) map[[2]int]float64 {
	const (
		exact  = 0 // last consume was the exact pattern character
		errSym = 1 // last consume was a substitution or insertion symbol
	)
	neg := math.Inf(-1)
	best := make(map[[2]int]float64)
	for k, pat := range pats {
		L, code := len(pat), k+1
		newGrid := func() [][][2]float64 {
			g := make([][][2]float64, L)
			for i := range g {
				g[i] = make([][2]float64, d+1)
				for e := range g[i] {
					g[i][e] = [2]float64{neg, neg}
				}
			}
			return g
		}
		cur := newGrid()
		for t := 0; t < len(input); t++ {
			x := input[t]
			nxt := newGrid()
			for i := 0; i < L; i++ {
				for e := 0; e <= d; e++ {
					// Exact consume of pat[i]: start, advance, or deletion.
					if x == pat[i] {
						v := neg
						if i == 0 && e == 0 {
							v = c.Match
						}
						if i >= 1 {
							if p := math.Max(cur[i-1][e][exact], cur[i-1][e][errSym]); p > neg {
								v = math.Max(v, p+c.Match)
							}
						}
						if i >= 2 && e >= 1 {
							if p := math.Max(cur[i-2][e-1][exact], cur[i-2][e-1][errSym]); p > neg {
								v = math.Max(v, p+c.Gap+c.Match)
							}
						}
						nxt[i][e][exact] = v
					}
					// Error consume at position i: substitution or insertion.
					if e >= 1 {
						v := neg
						if i >= 1 {
							if p := math.Max(cur[i-1][e-1][exact], cur[i-1][e-1][errSym]); p > neg {
								v = math.Max(v, p+c.Mismatch)
							}
						}
						if p := math.Max(cur[i][e-1][exact], cur[i][e-1][errSym]); p > neg {
							v = math.Max(v, p+c.Gap)
						}
						nxt[i][e][errSym] = v
					}
				}
			}
			for e := 0; e <= d; e++ {
				if v := nxt[L-1][e][exact]; v > neg {
					noteBest(best, endBitPos(t), code, v)
				}
				if e > 0 {
					if v := nxt[L-1][e][errSym]; v > neg {
						noteBest(best, endBitPos(t), code, v)
					}
				}
			}
			cur = nxt
		}
	}
	return best
}

// plantInput builds a random stream over the alphabet with several mutated
// copies of the patterns embedded, so reports actually occur; the oracle
// covers the whole stream regardless.
func plantInput(r *rand.Rand, pats [][]byte, length int, alphabet string, mutate func(*rand.Rand, []byte) []byte) []byte {
	out := make([]byte, length)
	for i := range out {
		out[i] = alphabet[r.Intn(len(alphabet))]
	}
	for k := 0; k < 8; k++ {
		read := mutate(r, append([]byte(nil), pats[r.Intn(len(pats))]...))
		if len(read) >= length {
			continue
		}
		copy(out[r.Intn(length-len(read)):], read)
	}
	return out
}

var scoredGeometries = []core.Config{
	{TargetBits: 8, StrideDims: 1},
	{TargetBits: 4, StrideDims: 1},
	{TargetBits: 4, StrideDims: 2},
	{TargetBits: 4, StrideDims: 4},
}

// compileAll returns the scored machine for the raw mesh plus one per
// pipeline geometry.
func compileAll(t *testing.T, n *automata.NFA, w *automata.Weights) map[string]*score.Compiled {
	t.Helper()
	out := map[string]*score.Compiled{}
	direct, err := score.Compile(n, w)
	if err != nil {
		t.Fatal(err)
	}
	out["direct(8,1)"] = direct
	for _, cfg := range scoredGeometries {
		cfg.Weights = w
		res, err := core.Compile(n, cfg)
		if err != nil {
			t.Fatalf("compile b=%d s=%d: %v", cfg.TargetBits, cfg.StrideDims, err)
		}
		sc, err := score.Compile(res.NFA, res.Weights)
		if err != nil {
			t.Fatalf("score compile b=%d s=%d: %v", cfg.TargetBits, cfg.StrideDims, err)
		}
		out[fmt.Sprintf("(%d,%d)", cfg.TargetBits, cfg.StrideDims)] = sc
	}
	return out
}

func diffBest(t *testing.T, name string, got, want map[[2]int]float64) {
	t.Helper()
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Fatalf("%s: missing report at bit %d code %d (oracle score %g)", name, k[0], k[1], w)
		}
		if g != w {
			t.Fatalf("%s: bit %d code %d: machine best %g, oracle best %g", name, k[0], k[1], g, w)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Fatalf("%s: spurious report at bit %d code %d score %g", name, k[0], k[1], got[k])
		}
	}
}

// The Hamming mesh's scores must equal the window-scan oracle at every
// geometry, and every state's in-edges carry one weight. The second pattern
// set is large enough that a state's predecessors sit in other words of the
// active vector than the state itself.
func TestScoredHammingOracle(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	const alphabet = "ACGT"
	c := Costs{Match: 1, Mismatch: -1, Gap: -2}
	for _, count := range []int{2, 7} {
		pats := RandomPatterns(r, count, 12, alphabet)
		n, w, err := ScoredHamming(pats, 2, c, -1000)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := score.Compile(n, w)
		if err != nil {
			t.Fatal(err)
		}
		if direct.ScalarScoredStates() != 0 {
			t.Fatalf("Hamming mesh has %d states with mixed in-edge weights; want none", direct.ScalarScoredStates())
		}
		input := plantInput(r, pats, 400, alphabet, func(r *rand.Rand, read []byte) []byte {
			for j := r.Intn(3); j > 0; j-- {
				read[r.Intn(len(read))] = alphabet[r.Intn(4)]
			}
			return read
		})
		want := oracleHamming(input, pats, 2, c)
		if len(want) == 0 {
			t.Fatal("oracle found no reports — test input is inert")
		}
		for name, m := range compileAll(t, n, w) {
			reports, _ := m.Run(input)
			diffBest(t, fmt.Sprintf("%d patterns %s", count, name), bestOf(reports), want)
		}
	}
}

// Acceptance criterion: the brute-force edit-distance oracle agrees with
// the reported scores on the Levenshtein workload — reads mutated by up to
// d=2 edits, across strides {1, 2, 4} — and the mesh's substitution and
// insertion edges land on the same states with different weights. The second
// pattern set spreads a state's predecessors over several words of the
// active vector.
func TestScoredLevenshteinOracle(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	const alphabet = "ACGT"
	c := Costs{Match: 1, Mismatch: -1, Gap: -2}
	const d = 2
	for _, count := range []int{2, 7} {
		pats := RandomPatterns(r, count, 8, alphabet)
		n, w, err := ScoredLevenshtein(pats, d, c, -1000)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := score.Compile(n, w)
		if err != nil {
			t.Fatal(err)
		}
		if direct.ScalarScoredStates() == 0 {
			t.Fatal("Levenshtein mesh has no state with mixed in-edge weights")
		}
		input := plantInput(r, pats, 240, alphabet, func(r *rand.Rand, read []byte) []byte {
			for j := r.Intn(d + 1); j > 0; j-- {
				switch pos := 1 + r.Intn(len(read)-2); r.Intn(3) {
				case 0: // substitution
					read[pos] = alphabet[r.Intn(4)]
				case 1: // insertion
					read = append(read[:pos], append([]byte{alphabet[r.Intn(4)]}, read[pos:]...)...)
				default: // deletion
					read = append(read[:pos], read[pos+1:]...)
				}
			}
			return read
		})
		want := oracleLevenshtein(input, pats, d, c)
		if len(want) == 0 {
			t.Fatal("oracle found no reports — test input is inert")
		}
		for name, m := range compileAll(t, n, w) {
			reports, _ := m.Run(input)
			diffBest(t, fmt.Sprintf("%d patterns %s", count, name), bestOf(reports), want)
		}
	}
}
