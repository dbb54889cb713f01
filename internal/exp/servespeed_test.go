package exp

import (
	"strings"
	"testing"

	"impala/internal/obs"
)

// serveTiny keeps the HTTP sweep sub-second: one small benchmark, small
// requests.
func serveTiny() Options {
	return Options{Scale: 0.004, Seed: 1, InputKB: 4, Benchmarks: []string{"Bro217"}}
}

func TestServeSpeedReport(t *testing.T) {
	reg := obs.NewRegistry()
	o := serveTiny()
	o.Metrics = reg
	rep, err := ServeSpeedReport(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Benchmark != "Bro217" || rep.States <= 0 || rep.InputBytes != 4096 {
		t.Fatalf("bad report envelope: %+v", rep)
	}
	if len(rep.Cells) != len(serveSpeedClients) {
		t.Fatalf("%d cells, want %d", len(rep.Cells), len(serveSpeedClients))
	}
	for i, c := range rep.Cells {
		if c.Clients != serveSpeedClients[i] {
			t.Fatalf("cell %d clients %d, want %d", i, c.Clients, serveSpeedClients[i])
		}
		if c.Requests <= 0 || c.MBPerSec <= 0 || c.ReqPerSec <= 0 || c.WallMS <= 0 {
			t.Fatalf("cell %d has zeroed measurements: %+v", i, c)
		}
		if c.BytesIn != int64(c.Requests)*int64(rep.InputBytes) {
			t.Fatalf("cell %d bytes %d, want %d", i, c.BytesIn, int64(c.Requests)*int64(rep.InputBytes))
		}
	}
	if rep.Cells[0].SpeedupVs1 != 1 {
		t.Fatalf("first cell speedup %v, want 1", rep.Cells[0].SpeedupVs1)
	}
	// Every request went through the serving stack: the match counter must
	// account for warm-ups plus the measured budget in each cell.
	total := reg.Snapshot().Counters["serve_match_requests_total"]
	var want int64
	for _, c := range rep.Cells {
		want += int64(c.Requests) + 1 // +1 warm-up per cell
	}
	if total != want {
		t.Fatalf("serve_match_requests_total %d, want %d", total, want)
	}
}

func TestServeSpeedRunner(t *testing.T) {
	tables, err := Registry()["servespeed"](serveTiny())
	if err != nil {
		t.Fatal(err)
	}
	out := render(t, tables)
	if !strings.Contains(out, "HTTP match serving throughput") {
		t.Fatalf("missing title:\n%s", out)
	}
	for _, clients := range []string{"1 ", "8 ", "64"} {
		if !strings.Contains(out, "\n"+clients) {
			t.Fatalf("missing %s-client row:\n%s", strings.TrimSpace(clients), out)
		}
	}
}

func TestServeSpeedUnknownBenchmark(t *testing.T) {
	o := serveTiny()
	o.Benchmarks = []string{"NoSuchBenchmark"}
	if _, err := ServeSpeedReport(o); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}
