// Scored mesh generators: the Hamming and Levenshtein approximate-matching
// meshes built together with a per-transition weight table, so the scored
// execution layer can rank matches by alignment quality instead of merely
// reporting them. The binary generators in gen.go delegate here with zero
// costs — there is one structural definition of each mesh, and a zero cost
// table reproduces the unweighted automaton exactly.
package workload

import (
	"fmt"
	"math/rand"

	"impala/internal/automata"
	"impala/internal/bitvec"
)

// Costs parameterizes a scored mesh in classic alignment terms: Match
// rewards consuming a pattern character exactly, Mismatch prices a
// substitution, Gap prices an insertion or deletion. With integer-valued
// costs every accumulated score is exact in float64.
type Costs struct {
	Match, Mismatch, Gap float64
}

// DefaultAlignCosts is a conventional DNA read-alignment scheme: reward
// exact bases, charge substitutions, charge indels more.
var DefaultAlignCosts = Costs{Match: 1, Mismatch: -1, Gap: -2}

// mesh accumulates an automaton and, when the weight maps are non-nil, the
// start/edge weights assigned as states and edges are added. Weights are
// keyed by endpoint pair so the table can be materialized after DedupEdges
// (mesh builders never emit duplicate edges, so no merging is needed).
type mesh struct {
	n      *automata.NFA
	startW map[automata.StateID]float64
	edgeW  map[[2]automata.StateID]float64
}

func newScoredMesh() *mesh {
	return &mesh{
		n:      automata.New(8, 1),
		startW: make(map[automata.StateID]float64),
		edgeW:  make(map[[2]automata.StateID]float64),
	}
}

// addState adds a state; w is the score contribution of beginning a path at
// this state (recorded only for start states in a weighted mesh).
func (m *mesh) addState(s automata.State, w float64) automata.StateID {
	id := m.n.AddState(s)
	if m.startW != nil && s.Start != automata.StartNone {
		m.startW[id] = w
	}
	return id
}

// addEdge adds an edge carrying weight w — the score contribution of the
// symbol consumed on arrival at to.
func (m *mesh) addEdge(from, to automata.StateID, w float64) {
	m.n.AddEdge(from, to)
	if m.edgeW != nil {
		m.edgeW[[2]automata.StateID{from, to}] = w
	}
}

// finish dedups, validates, and materializes the weight table in the shape
// automata.Weights requires (rows parallel to each state's Out list).
func (m *mesh) finish(threshold float64) (*automata.NFA, *automata.Weights, error) {
	m.n.DedupEdges()
	if err := m.n.Validate(); err != nil {
		return nil, nil, fmt.Errorf("workload: scored mesh invalid: %w", err)
	}
	w := automata.NewWeights(m.n)
	w.Threshold = threshold
	for id, v := range m.startW {
		w.Start[id] = v
	}
	for i := range m.n.States {
		from := automata.StateID(i)
		for j, to := range m.n.States[i].Out {
			w.Edge[i][j] = m.edgeW[[2]automata.StateID{from, to}]
		}
	}
	if err := w.Validate(m.n); err != nil {
		return nil, nil, fmt.Errorf("workload: scored mesh weights invalid: %w", err)
	}
	return m.n, w, nil
}

// ScoredHamming builds one Hamming-distance mesh per pattern (codes are
// 1-based pattern indexes) with per-transition costs: exact positions score
// c.Match, mismatched positions score c.Mismatch, and at most d mismatches
// beyond the first position are tolerated. Every state's in-edges carry one
// weight (a state consumes either the pattern character or its complement),
// so the scored engine runs the Hamming mesh entirely on the bit-parallel
// fast path.
func ScoredHamming(pats [][]byte, d int, c Costs, threshold float64) (*automata.NFA, *automata.Weights, error) {
	m := newScoredMesh()
	for k, p := range pats {
		if len(p) < 2 {
			return nil, nil, fmt.Errorf("workload: scored pattern %d too short (%d bytes, need >= 2)", k, len(p))
		}
		buildHamming(m, p, d, k+1, c)
	}
	return m.finish(threshold)
}

// ScoredLevenshtein builds one edit-distance mesh per pattern (codes are
// 1-based pattern indexes) with per-transition costs: exact advances score
// c.Match, substitutions c.Mismatch, insertions c.Gap, and a deletion —
// which skips one pattern character and lands on an exact consume — scores
// c.Gap+c.Match. The error states are entered by both substitution and
// insertion edges, so with c.Mismatch != c.Gap those states' in-edges carry
// mixed weights.
func ScoredLevenshtein(pats [][]byte, d int, c Costs, threshold float64) (*automata.NFA, *automata.Weights, error) {
	m := newScoredMesh()
	for k, p := range pats {
		if len(p) < 2 {
			return nil, nil, fmt.Errorf("workload: scored pattern %d too short (%d bytes, need >= 2)", k, len(p))
		}
		buildLevenshtein(m, p, d, k+1, c)
	}
	return m.finish(threshold)
}

// buildHamming is the single structural definition of the Hamming mesh (see
// genHamming): state m[e][i] consumes pat[i] with e errors so far, x[e][i]
// consumes a mismatch. Paths consume exactly len(pat) symbols.
func buildHamming(m *mesh, pat []byte, d, code int, c Costs) {
	L := len(pat)
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
			report := i == L-1
			match[e][i] = m.addState(automata.State{
				Match:      automata.MatchSet{automata.Rect{bitvec.ByteOf(pat[i])}},
				Start:      kind,
				Report:     report,
				ReportCode: code,
			}, c.Match)
			miss[e][i] = m.addState(automata.State{
				Match:      automata.MatchSet{automata.Rect{bitvec.ByteOf(pat[i]).Complement()}},
				Start:      kind,
				Report:     report && e > 0, // a mismatch at the last position costs an error
				ReportCode: code,
			}, c.Mismatch)
		}
	}
	for e := 0; e <= d; e++ {
		for i := 0; i < L-1; i++ {
			m.addEdge(match[e][i], match[e][i+1], c.Match)
			if e < d {
				m.addEdge(match[e][i], miss[e+1][i+1], c.Mismatch)
			}
			m.addEdge(miss[e][i], match[e][i+1], c.Match)
			if e < d {
				m.addEdge(miss[e][i], miss[e+1][i+1], c.Mismatch)
			}
		}
	}
}

// buildLevenshtein is the single structural definition of the edit-distance
// mesh (see genLevenshtein): match[e][i] consumed pat[i] exactly, any[e][i]
// consumed an error symbol standing at pattern position i; substitutions,
// insertions (stay) and single-character deletions (skip) each burn one of
// the d error levels.
func buildLevenshtein(m *mesh, pat []byte, d, code int, c Costs) {
	L := len(pat)
	match := make([][]automata.StateID, d+1)
	any := make([][]automata.StateID, d+1)
	for e := 0; e <= d; e++ {
		match[e] = make([]automata.StateID, L)
		any[e] = make([]automata.StateID, L)
		for i := 0; i < L; i++ {
			kind := automata.StartNone
			if i == 0 && e == 0 {
				kind = automata.StartAllInput
			}
			match[e][i] = m.addState(automata.State{
				Match:      automata.MatchSet{automata.Rect{bitvec.ByteOf(pat[i])}},
				Start:      kind,
				Report:     i == L-1,
				ReportCode: code,
			}, c.Match)
			any[e][i] = m.addState(automata.State{
				Match:      automata.MatchSet{automata.Rect{bitvec.ByteAll()}},
				Start:      automata.StartNone,
				Report:     i == L-1 && e > 0,
				ReportCode: code,
			}, 0)
		}
	}
	for e := 0; e <= d; e++ {
		for i := 0; i < L; i++ {
			if i+1 < L {
				m.addEdge(match[e][i], match[e][i+1], c.Match) // exact advance
			}
			if e < d {
				if i+1 < L {
					m.addEdge(match[e][i], any[e+1][i+1], c.Mismatch) // substitution
					m.addEdge(any[e][i], any[e+1][i+1], c.Mismatch)
				}
				m.addEdge(match[e][i], any[e+1][i], c.Gap) // insertion (stay)
				m.addEdge(any[e][i], any[e+1][i], c.Gap)
				if i+2 < L {
					// deletion (skip): one gap plus the exact consume it
					// lands on.
					m.addEdge(match[e][i], match[e+1][i+2], c.Gap+c.Match)
					m.addEdge(any[e][i], match[e+1][i+2], c.Gap+c.Match)
				}
			}
			if i+1 < L {
				m.addEdge(any[e][i], match[e][i+1], c.Match)
			}
		}
	}
}

// RandomPatterns draws count random length-L patterns over the alphabet —
// DNA reads for alphabet "ACGT", fuzzy record keys for a letter alphabet.
func RandomPatterns(r *rand.Rand, count, L int, alphabet string) [][]byte {
	pats := make([][]byte, count)
	for k := range pats {
		p := make([]byte, L)
		for i := range p {
			p[i] = alphabet[r.Intn(len(alphabet))]
		}
		pats[k] = p
	}
	return pats
}
