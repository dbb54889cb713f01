package exp

import (
	"bytes"
	"strings"
	"testing"
)

// A small but real run over two workload families. The in-experiment
// cross-check (both backends report identically on the same input) makes
// this a correctness test as much as a harness test.
func TestBackendCmpReportSmall(t *testing.T) {
	o := Options{Scale: 0.02, Seed: 1, InputKB: 8,
		Benchmarks: []string{"ExactMatch", "Hamming"}}
	rep, err := BackendCmpReport(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 4 {
		t.Fatalf("cells = %d, want 2 benchmarks x 2 backends", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.States <= 0 || c.Rows <= 0 || c.Groups <= 0 || c.Units <= 0 {
			t.Fatalf("%s/%s: empty shape: %+v", c.Benchmark, c.Backend, c)
		}
		if c.FreqGHz <= 0 || c.ThroughputGbps <= 0 || c.TotalMM2 <= 0 || c.PJPerByte <= 0 {
			t.Fatalf("%s/%s: degenerate model: %+v", c.Benchmark, c.Backend, c)
		}
		if c.MeasuredMBs <= 0 {
			t.Fatalf("%s/%s: no measured throughput", c.Benchmark, c.Backend)
		}
		switch c.Backend {
		case "impala":
			// Capsule columns: one per state.
			if c.Rows != c.States {
				t.Fatalf("impala rows %d != states %d", c.Rows, c.States)
			}
		case "cam":
			// Ternary rows: at least one per state (one per match rect).
			if c.Rows < c.States {
				t.Fatalf("cam rows %d < states %d", c.Rows, c.States)
			}
		default:
			t.Fatalf("unexpected backend %q", c.Backend)
		}
	}

	var buf bytes.Buffer
	backendTable(rep).Render(&buf)
	if !strings.Contains(buf.String(), "cam") || !strings.Contains(buf.String(), "impala") {
		t.Fatalf("table missing a backend row:\n%s", buf.String())
	}

	// JSON round trip: the baseline file format.
	got := roundTrip(t, rep, "backendcmp")
	if len(got.Cells) != len(rep.Cells) || got.Cells[0] != rep.Cells[0] {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", got.Cells, rep.Cells)
	}
	// A fresh identical run must pass its own baseline.
	if bad := gateByID(t, "backendcmp").Compare(got, rep); len(bad) != 0 {
		t.Fatalf("self-check flagged: %v", bad)
	}
}
