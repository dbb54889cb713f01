package exp

import (
	"bytes"
	"strings"
	"testing"
)

// A small but real run: one DFA-heavy benchmark and the ring suite whose
// components exercise the NFA-tier fallback. The in-experiment
// cross-checks (tiered == compiled == scalar) make this a correctness test
// as much as a harness test.
func TestTierSpeedReportSmall(t *testing.T) {
	o := Options{Scale: 0.02, Seed: 1, InputKB: 8,
		Benchmarks: []string{"ExactMatch", "CoreRings"}}
	rep, err := TierSpeedReport(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.States <= 0 || c.CCs <= 0 {
			t.Fatalf("%s: empty shape: %+v", c.Benchmark, c)
		}
		if c.ScalarMBs <= 0 || c.CompiledMBs <= 0 || c.TieredMBs <= 0 {
			t.Fatalf("%s: non-positive throughput: %+v", c.Benchmark, c)
		}
		if c.SpeedupVsCompiled <= 0 {
			t.Fatalf("%s: bad speedup %v", c.Benchmark, c.SpeedupVsCompiled)
		}
		if c.DFACCs > 0 && (c.DFAStates <= 0 || c.TableBytes <= 0) {
			t.Fatalf("%s: DFA tier selected but no tables: %+v", c.Benchmark, c)
		}
	}
	if rep.Cells[0].DFACCs != rep.Cells[0].CCs {
		t.Fatalf("ExactMatch should determinize fully: %d/%d",
			rep.Cells[0].DFACCs, rep.Cells[0].CCs)
	}

	var buf bytes.Buffer
	tierTable(rep).Render(&buf)
	if !strings.Contains(buf.String(), "ExactMatch") {
		t.Fatalf("table missing benchmark row:\n%s", buf.String())
	}

	// JSON round trip: the baseline file format.
	got := roundTrip(t, rep, "tierspeed")
	if len(got.Cells) != len(rep.Cells) || got.Cells[0] != rep.Cells[0] {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", got.Cells, rep.Cells)
	}
	// A fresh identical-shape run must pass its own baseline.
	if bad := gateByID(t, "tierspeed").Compare(got, rep); len(bad) != 0 {
		t.Fatalf("self-check flagged: %v", bad)
	}
}
