package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"impala/internal/automata"
	"impala/internal/sim"
	"impala/internal/workload"
)

// row is one served match as the client sees it. Binary tenants leave Scored
// false; rows compare with ==.
type row struct {
	End, Pattern int
	Scored       bool
	Score        float64
}

func sortRows(rows []row) {
	slices.SortFunc(rows, func(a, b row) int {
		if a.End != b.End {
			return a.End - b.End
		}
		return a.Pattern - b.Pattern
	})
}

// body is one request payload with the rows a correct server returns for it,
// in the serving boundary's (end, pattern) order.
type body struct {
	Data []byte
	Want []row
}

// corpus builds a workload's request bodies from the seed and computes each
// body's expected rows on an interpreter that is not under test.
func (s spec) corpus(src *source, seed int64) ([]body, error) {
	r := rand.New(rand.NewSource(seed))
	bodies := make([]body, bodiesPerWorkload)
	if src.Weights != nil {
		for i := range bodies {
			data := plantedReads(r, src.Pats, s.BodyBytes)
			bodies[i] = body{Data: data, Want: alignmentRows(data, src.Pats)}
		}
		return bodies, nil
	}
	var wit [][]byte
	if s.Spacing > 0 {
		wit = witnesses(src.NFA)
		if len(wit) == 0 {
			return nil, fmt.Errorf("%s: no report state is reachable from an all-input start", s.Name)
		}
	}
	ref, err := sim.NewEngine(src.NFA)
	if err != nil {
		return nil, err
	}
	for i := range bodies {
		data := workload.Input(src.NFA, s.BodyBytes, r.Int63())
		if wit != nil {
			plant(data, wit, i, s.Spacing, r)
		}
		reports, _ := ref.Run(data, nil)
		bodies[i] = body{Data: data, Want: reportRows(reports)}
	}
	return bodies, nil
}

// reportRows maps engine reports to distinct served rows: a report's end
// offset is its bit position in whole bytes.
func reportRows(reports []sim.Report) []row {
	rows := make([]row, 0, len(reports))
	for _, rp := range reports {
		rows = append(rows, row{End: rp.BitPos / 8, Pattern: rp.Code})
	}
	sortRows(rows)
	return slices.Compact(rows)
}

// maxWitnesses caps the distinct witness strings kept per rule set.
const maxWitnesses = 64

// witnesses returns byte strings that each drive the automaton from an
// all-input start state to a report state: breadth-first shortest paths,
// with every state on the path rendered to the first byte of its match set.
// The background generator alone produces no matches on the suite automata,
// so planted witnesses are what make the report path do work. They depend on
// the rules only, never on the seed.
func witnesses(n *automata.NFA) [][]byte {
	parent := make([]automata.StateID, len(n.States))
	for i := range parent {
		parent[i] = -2 // unvisited
	}
	var queue []automata.StateID
	for i := range n.States {
		if n.States[i].Start == automata.StartAllInput {
			parent[i] = -1 // root
			queue = append(queue, automata.StateID(i))
		}
	}
	var out [][]byte
	for len(queue) > 0 && len(out) < maxWitnesses {
		id := queue[0]
		queue = queue[1:]
		if n.States[id].Report {
			var path []automata.StateID
			for at := id; at >= 0; at = parent[at] {
				path = append(path, at)
			}
			slices.Reverse(path)
			w := make([]byte, len(path))
			for i, st := range path {
				w[i] = n.States[st].Match[0][0].Values()[0]
			}
			out = append(out, w)
		}
		for _, next := range n.States[id].Out {
			if parent[next] == -2 {
				parent[next] = id
				queue = append(queue, next)
			}
		}
	}
	return out
}

// plant overwrites body number i with one witness per spacing bytes. Which
// witnesses a body carries is fixed — they are dealt round-robin, continuing
// from body to body — because witnesses differ in what they cost afterwards
// (one that leaves a dot-star state active makes the rest of the body
// dearer): drawing them by seed made the work itself differ from seed to
// seed. The seed moves each witness within the first half of its slot; the
// second half keeps a witness longer than the slot's rest from being cut. A
// witness longer than the spacing pushes the next one to the following slot,
// so witnesses never overwrite each other.
func plant(data []byte, wit [][]byte, i, spacing int, r *rand.Rand) {
	next := i * (len(data) / spacing)
	for slot := 0; slot < len(data); next++ {
		w := wit[next%len(wit)]
		off := slot + r.Intn(spacing/2)
		if off+len(w) > len(data) {
			break
		}
		copy(data[off:], w)
		slot += (off + len(w) - slot + spacing - 1) / spacing * spacing
	}
}

// plantedReads builds a read stream for the DNA universe: random background
// with copies of the patterns carrying 0-3 edits, so the body holds perfect
// reads, reads the threshold admits and reads it must reject.
func plantedReads(r *rand.Rand, pats [][]byte, size int) []byte {
	sym := func() byte { return dnaAlphabet[r.Intn(len(dnaAlphabet))] }
	buf := make([]byte, 0, size+32)
	for len(buf) < size {
		for gap := 6 + r.Intn(18); gap > 0; gap-- {
			buf = append(buf, sym())
		}
		read := slices.Clone(pats[r.Intn(len(pats))])
		for edits := r.Intn(4); edits > 0; edits-- {
			i := r.Intn(len(read))
			switch r.Intn(3) {
			case 0:
				read[i] = sym()
			case 1:
				read = slices.Delete(read, i, i+1)
			default:
				read = slices.Insert(read, i, sym())
			}
		}
		buf = append(buf, read...)
	}
	return buf[:size]
}

// alignmentRows is the scored workload's reference: a max-plus dynamic
// program over the alignment semantics the edit-distance mesh encodes,
// written against the definition and never touching an automaton. An
// alignment starts by consuming pat[0] exactly, then advances by exact
// matches, substitutions, insertions or single-character deletions (a gap
// plus the exact consume it lands on), with at most dnaDist errors; it ends
// when the last pattern position is consumed, by an error symbol only if an
// error occurred. A row is the best score per (end, pattern) that meets the
// threshold. Integer costs keep every score exact in float64.
func alignmentRows(input []byte, pats [][]byte) []row {
	c := workload.DefaultAlignCosts
	neg := math.Inf(-1)
	const levels = dnaDist + 1
	// cell[i][e][k]: best score having consumed pattern position i with e
	// errors, the last symbol consumed exactly (k=0) or as an error (k=1).
	type grid [dnaLength][levels][2]float64
	reset := func(g *grid) {
		for i := range g {
			for e := range g[i] {
				g[i][e] = [2]float64{neg, neg}
			}
		}
	}
	top := func(cell [2]float64) float64 { return math.Max(cell[0], cell[1]) }

	var rows []row
	for k, pat := range pats {
		var cur, nxt grid
		reset(&cur)
		for t, x := range input {
			reset(&nxt)
			for i := 0; i < dnaLength; i++ {
				for e := 0; e < levels; e++ {
					if x == pat[i] {
						v := neg
						if i == 0 && e == 0 {
							v = c.Match
						}
						if i >= 1 {
							v = math.Max(v, top(cur[i-1][e])+c.Match)
						}
						if i >= 2 && e >= 1 {
							v = math.Max(v, top(cur[i-2][e-1])+c.Gap+c.Match)
						}
						nxt[i][e][0] = v
					}
					if e >= 1 {
						v := top(cur[i][e-1]) + c.Gap
						if i >= 1 {
							v = math.Max(v, top(cur[i-1][e-1])+c.Mismatch)
						}
						nxt[i][e][1] = v
					}
				}
			}
			best := neg
			for e := 0; e < levels; e++ {
				best = math.Max(best, nxt[dnaLength-1][e][0])
				if e > 0 {
					best = math.Max(best, nxt[dnaLength-1][e][1])
				}
			}
			if best >= dnaThreshold {
				rows = append(rows, row{End: t + 1, Pattern: k + 1, Scored: true, Score: best})
			}
			cur = nxt
		}
	}
	sortRows(rows)
	return rows
}
