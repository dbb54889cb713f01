package exp

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"impala/internal/automata"
	"impala/internal/score"
	"impala/internal/sim"
	"impala/internal/workload"
)

// scoreUniverse is one scored-matching workload: a mesh family, the
// alphabet its patterns and inputs are drawn from, and the alignment cost
// scheme. The threshold is derived from the pattern length so that perfect
// and single-edit reads clear it while two-edit reads do not — the ranking
// regime the alignment demo runs in.
type scoreUniverse struct {
	Name     string
	Mesh     string // "levenshtein" | "hamming"
	Alphabet string
	Length   int
	Dist     int
	Costs    workload.Costs
}

// scoreSpeedUniverses are the two inputs the issue names: DNA-read
// alignment (edit-distance mesh over ACGT reads — its substitution and
// insertion edges land on the same states with different weights) and fuzzy
// entity resolution (Hamming mesh over record keys — every state's in-edges
// carry one weight). Both take the same scoring pass; the scalar_states
// column keeps the weight tables' difference visible.
var scoreSpeedUniverses = []scoreUniverse{
	{Name: "DNA-align", Mesh: "levenshtein", Alphabet: "ACGT", Length: 12, Dist: 2,
		Costs: workload.DefaultAlignCosts},
	{Name: "Entity-fuzzy", Mesh: "hamming", Alphabet: "aeilnorst", Length: 10, Dist: 2,
		Costs: workload.Costs{Match: 1, Mismatch: -1}},
}

// threshold is the universe's report cutoff: the lowest score any
// single-edit read can earn. For the edit-distance mesh that is a deletion
// ((L-1) matches plus one gap); for Hamming it is one substitution. Every
// two-edit read scores strictly below it under the universes' cost schemes.
func (u scoreUniverse) threshold() float64 {
	if u.Mesh == "hamming" {
		return float64(u.Length-1)*u.Costs.Match + u.Costs.Mismatch
	}
	return float64(u.Length-1)*u.Costs.Match + u.Costs.Gap
}

// ScoreCell is one universe's scored-vs-binary measurement. The shape
// columns (pattern count, states, weighted edges, mixed-weight states,
// threshold) and both report counts are deterministic for a fixed
// scale/seed and compared exactly by the regression gate; the throughput
// columns are wall-clock.
type ScoreCell struct {
	Universe      string  `json:"universe"`
	Mesh          string  `json:"mesh"`
	Patterns      int     `json:"patterns"`
	States        int     `json:"states"`
	WeightedEdges int     `json:"weighted_edges"`
	ScalarStates  int     `json:"scalar_states"`
	Threshold     float64 `json:"threshold"`
	// BinaryReports is the unweighted engine's structural match count;
	// ScoredReports is how many of those cleared the threshold.
	BinaryReports int `json:"binary_reports"`
	ScoredReports int `json:"scored_reports"`
	// One measured pass each, best of three interleaved rounds.
	// RelThroughput is scored-over-binary: the fraction of binary
	// throughput the score datapath retains.
	BinaryMBPerSec float64 `json:"binary_mb_per_sec"`
	ScoredMBPerSec float64 `json:"scored_mb_per_sec"`
	BinaryWallMS   float64 `json:"binary_wall_ms"`
	ScoredWallMS   float64 `json:"scored_wall_ms"`
	RelThroughput  float64 `json:"rel_throughput"`
}

// scorePatternCount sizes a universe's pattern set off the scale knob the
// way the benchmark suite does: 400 patterns at full scale, never fewer
// than two.
func scorePatternCount(scale float64) int {
	n := int(scale*400 + 0.5)
	if n < 2 {
		n = 2
	}
	return n
}

// plantedReads synthesizes a read stream for a scored universe: random
// background over the alphabet with planted copies of the patterns mutated
// by 0–3 edits, so the input holds perfect reads, reads the threshold
// admits, and reads it must reject. Deterministic for a fixed seed.
func plantedReads(r *rand.Rand, pats [][]byte, alphabet string, size int) []byte {
	buf := make([]byte, 0, size+32)
	sym := func() byte { return alphabet[r.Intn(len(alphabet))] }
	for len(buf) < size {
		for gap := 6 + r.Intn(18); gap > 0; gap-- {
			buf = append(buf, sym())
		}
		read := append([]byte(nil), pats[r.Intn(len(pats))]...)
		for edits := r.Intn(4); edits > 0 && len(read) > 2; edits-- {
			i := r.Intn(len(read))
			switch r.Intn(3) {
			case 0: // substitution
				read[i] = sym()
			case 1: // deletion
				read = append(read[:i], read[i+1:]...)
			default: // insertion
				read = append(read[:i], append([]byte{sym()}, read[i:]...)...)
			}
		}
		buf = append(buf, read...)
	}
	return buf[:size]
}

// buildUniverse generates a universe's mesh and weight table at the given
// scale/seed.
func buildUniverse(u scoreUniverse, scale float64, seed int64) (*automata.NFA, *automata.Weights, [][]byte, error) {
	r := rand.New(rand.NewSource(seed))
	pats := workload.RandomPatterns(r, scorePatternCount(scale), u.Length, u.Alphabet)
	var (
		n   *automata.NFA
		w   *automata.Weights
		err error
	)
	switch u.Mesh {
	case "hamming":
		n, w, err = workload.ScoredHamming(pats, u.Dist, u.Costs, u.threshold())
	case "levenshtein":
		n, w, err = workload.ScoredLevenshtein(pats, u.Dist, u.Costs, u.threshold())
	default:
		err = fmt.Errorf("exp: unknown scored mesh %q", u.Mesh)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	return n, w, pats, nil
}

// ScoreSpeedReport runs the scored max-plus engine against the binary
// compiled engine over the two scored universes. Each cell's warm-up pass
// doubles as a correctness cross-check: a threshold-free clone of the
// weight table must reproduce the binary engine's report set exactly (the
// score datapath may never perturb the match semantics), and every
// threshold-cleared report must be one of the binary reports. Timing is
// interleaved best-of-three so a slow system phase degrades one round of
// both engines instead of one engine's whole measurement.
func ScoreSpeedReport(o Options) (*Report[ScoreCell], error) {
	o = o.withDefaults()
	rep := &Report[ScoreCell]{
		Design:     "scored max-plus engine vs binary compiled (8-bit stride-1)",
		Scale:      o.Scale,
		Seed:       o.Seed,
		InputKB:    o.InputKB,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	cells := make([]ScoreCell, len(scoreSpeedUniverses))
	if err := o.forEachCell(len(scoreSpeedUniverses), func(i int) error {
		u := scoreSpeedUniverses[i]
		n, w, pats, err := buildUniverse(u, o.Scale, o.Seed)
		if err != nil {
			return err
		}
		rin := rand.New(rand.NewSource(o.Seed + 3))
		input := plantedReads(rin, pats, u.Alphabet, o.InputKB*1024)

		binary, err := sim.Compile(n)
		if err != nil {
			return err
		}
		// The scored form runs what a machine serves: the mesh less its
		// threshold-dead states, as core.Compile prunes it.
		sub, sw, live := automata.PruneThreshold(n, w)
		scored, err := score.Compile(sub, sw)
		if err != nil {
			return err
		}

		// Warm-up + correctness. The binary report set is the reference;
		// with the threshold dropped to the saturation floor the scored
		// engine must reproduce it report-for-report.
		want, _ := binary.Run(input)
		all := w.Clone()
		all.Threshold = -automata.ScoreLimit
		unfiltered, err := score.Compile(n, all)
		if err != nil {
			return err
		}
		allReports, _ := unfiltered.Run(input)
		if !sim.SameReports(want, allReports) {
			return fmt.Errorf("exp: %s: threshold-free scored reports diverge from binary (%d vs %d)",
				u.Name, len(allReports), len(want))
		}
		got, _ := scored.Run(input)
		structural := make(map[sim.Report]bool, len(want))
		for _, r := range want {
			structural[r] = true
		}
		for _, r := range got {
			r.Score = 0 // a binary report's
			if live != nil {
				r.State = live[r.State]
			}
			if !structural[r] {
				return fmt.Errorf("exp: %s: scored report at bit %d is not a binary report", u.Name, r.BitPos)
			}
		}
		if len(got) == 0 || len(got) >= len(want) {
			return fmt.Errorf("exp: %s: threshold %g filtered %d of %d reports — input is inert or the cutoff is wrong",
				u.Name, w.Threshold, len(want)-len(got), len(want))
		}

		binWall, scWall := time.Duration(1<<62), time.Duration(1<<62)
		for round := 0; round < 3; round++ {
			t0 := time.Now()
			binary.Run(input)
			if d := time.Since(t0); d < binWall {
				binWall = d
			}
			t0 = time.Now()
			scored.Run(input)
			if d := time.Since(t0); d < scWall {
				scWall = d
			}
		}
		binMBs := float64(len(input)) / binWall.Seconds() / 1e6
		scMBs := float64(len(input)) / scWall.Seconds() / 1e6
		cells[i] = ScoreCell{
			Universe:       u.Name,
			Mesh:           u.Mesh,
			Patterns:       len(pats),
			States:         n.NumStates(),
			WeightedEdges:  w.NumEdges(),
			ScalarStates:   w.MixedStates(n),
			Threshold:      w.Threshold,
			BinaryReports:  len(want),
			ScoredReports:  len(got),
			BinaryMBPerSec: binMBs,
			ScoredMBPerSec: scMBs,
			BinaryWallMS:   float64(binWall) / float64(time.Millisecond),
			ScoredWallMS:   float64(scWall) / float64(time.Millisecond),
			RelThroughput:  scMBs / binMBs,
		}
		return nil
	}); err != nil {
		return nil, err
	}
	rep.Cells = cells
	rep.Metrics = o.snapshot()
	return rep, nil
}

// scoreTable renders the report in the harness's text-table format.
func scoreTable(r *Report[ScoreCell]) *Table {
	t := &Table{
		Title: "Scored execution: max-plus scoring vs binary matching",
		Header: []string{"universe", "mesh", "patterns", "states", "w-edges", "scalar",
			"thresh", "bin rpts", "scored", "bin MB/s", "scored MB/s", "retained"},
	}
	for _, c := range r.Cells {
		t.AddRow(c.Universe, c.Mesh, fmt.Sprint(c.Patterns), fmt.Sprint(c.States),
			fmt.Sprint(c.WeightedEdges), fmt.Sprint(c.ScalarStates),
			fmt.Sprintf("%g", c.Threshold), fmt.Sprint(c.BinaryReports), fmt.Sprint(c.ScoredReports),
			f1(c.BinaryMBPerSec), f1(c.ScoredMBPerSec), fmt.Sprintf("%.0f%%", c.RelThroughput*100))
	}
	t.AddNote("retained = scored throughput as a fraction of binary; scalar = states whose in-edges carry mixed weights (a property of the weight table; every state takes the same scoring pass)")
	t.AddNote("every cell cross-checked: a threshold-free weight table reproduces the binary report set exactly")
	return t
}

// scoreRows projects one row per universe: the workload's shape, threshold
// and both report counts exactly — generation, compilation and threshold
// filtering are all deterministic.
func scoreRows(r *Report[ScoreCell]) []Row {
	rows := make([]Row, len(r.Cells))
	for i, c := range r.Cells {
		rows[i] = Row{
			Key: c.Universe,
			Exact: []Col{{"patterns", c.Patterns}, {"states", c.States}, {"weighted_edges", c.WeightedEdges},
				{"scalar_states", c.ScalarStates}, {"threshold", c.Threshold},
				{"binary_reports", c.BinaryReports}, {"scored_reports", c.ScoredReports}},
		}
	}
	return rows
}
