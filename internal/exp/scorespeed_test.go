package exp

import (
	"strings"
	"testing"
)

// scoreTiny keeps the run sub-second: two patterns per universe, tiny input.
func scoreTiny() Options {
	return Options{Scale: 0.005, Seed: 1, InputKB: 4}
}

func TestScoreSpeedReport(t *testing.T) {
	o := scoreTiny()
	rep, err := ScoreSpeedReport(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scale != o.Scale || rep.Seed != o.Seed || rep.InputKB != o.InputKB || rep.GOMAXPROCS < 1 {
		t.Fatalf("bad report envelope: %+v", rep)
	}
	if len(rep.Cells) != len(scoreSpeedUniverses) {
		t.Fatalf("%d cells, want %d", len(rep.Cells), len(scoreSpeedUniverses))
	}
	for i, c := range rep.Cells {
		u := scoreSpeedUniverses[i]
		if c.Universe != u.Name || c.Mesh != u.Mesh || c.Threshold != u.threshold() {
			t.Fatalf("cell %d envelope diverges from universe %+v: %+v", i, u, c)
		}
		if c.Patterns < 2 || c.States <= 0 || c.WeightedEdges <= 0 {
			t.Fatalf("%s has an empty mesh: %+v", c.Universe, c)
		}
		if c.BinaryReports <= 0 || c.ScoredReports <= 0 || c.ScoredReports >= c.BinaryReports {
			t.Fatalf("%s threshold filtering inert: %d scored of %d binary", c.Universe, c.ScoredReports, c.BinaryReports)
		}
		if c.BinaryMBPerSec <= 0 || c.ScoredMBPerSec <= 0 || c.RelThroughput <= 0 {
			t.Fatalf("%s has zeroed measurements: %+v", c.Universe, c)
		}
	}
	// The Hamming mesh is uniform by construction (all bit-parallel); the
	// edit-distance mesh must exercise the scalar fallback.
	if rep.Cells[0].ScalarStates == 0 {
		t.Fatalf("DNA-align cell does not exercise the scalar fallback: %+v", rep.Cells[0])
	}
	if rep.Cells[1].ScalarStates != 0 {
		t.Fatalf("Entity-fuzzy cell fell off the fast path: %+v", rep.Cells[1])
	}

	back := roundTrip(t, rep, "scorespeed")
	if len(back.Cells) != len(rep.Cells) || back.Cells[0].Universe != rep.Cells[0].Universe {
		t.Fatalf("JSON round trip diverges: %+v", back)
	}
}

func TestScoreSpeedRunner(t *testing.T) {
	tables, err := Registry()["scorespeed"](scoreTiny())
	if err != nil {
		t.Fatal(err)
	}
	out := render(t, tables)
	if !strings.Contains(out, "Scored execution") {
		t.Fatalf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "DNA-align") || !strings.Contains(out, "Entity-fuzzy") {
		t.Fatalf("missing universe rows:\n%s", out)
	}
}
