package exp

import (
	"strings"
	"testing"
)

// clusterTiny keeps the sweep sub-second: one component-rich benchmark at a
// small scale, tiny input. The report only exists if every in-run
// cross-check (frontend merge vs single process vs in-process match set,
// plus the stream fan-out) passed.
func clusterTiny() Options {
	return Options{Scale: 0.004, Seed: 1, InputKB: 4, Benchmarks: []string{"CoreRings"}}
}

func TestClusterSweepReport(t *testing.T) {
	o := clusterTiny()
	rep, err := ClusterSweepReport(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scale != o.Scale || rep.Seed != o.Seed || rep.InputKB != o.InputKB || rep.GOMAXPROCS < 1 {
		t.Fatalf("bad report envelope: %+v", rep)
	}
	want := len(clusterKs) * len(clusterTopos)
	if len(rep.Cells) != want {
		t.Fatalf("%d cells, want %d", len(rep.Cells), want)
	}
	for _, c := range rep.Cells {
		if c.Benchmark != "CoreRings" || c.States <= 0 || c.Domains <= 0 {
			t.Fatalf("bad cell envelope: %+v", c)
		}
		if len(c.ShardDomain) != c.Shards {
			t.Fatalf("placement length %d for K=%d: %+v", len(c.ShardDomain), c.Shards, c)
		}
		if len(c.DomainStates) != c.Domains {
			t.Fatalf("domain-state length %d for %d domains: %+v", len(c.DomainStates), c.Domains, c)
		}
		hosted := 0
		for _, s := range c.DomainStates {
			hosted += s
		}
		if hosted != c.States {
			t.Fatalf("domains host %d states, machine has %d: %+v", hosted, c.States, c)
		}
		if c.Bytes != int64(o.InputKB*1024) || c.Matches < 0 || c.CutCost < 0 || c.MBPerSec <= 0 {
			t.Fatalf("bad measurements: %+v", c)
		}
	}

	// The sweep is deterministic end to end: a second run produces the same
	// cells (MBPerSec aside), which is what makes the exact gate tenable.
	rep2, err := ClusterSweepReport(o)
	if err != nil {
		t.Fatal(err)
	}
	g := gateByID(t, "clustersweep")
	if bad := g.Compare(rep, rep2); len(bad) != 0 {
		t.Fatalf("repeated sweep drifts: %v", bad)
	}
	if bad := g.Compare(rep, roundTrip(t, rep, "clustersweep")); len(bad) != 0 {
		t.Fatalf("JSON round trip diverges: %v", bad)
	}
}

func TestClusterSweepRunner(t *testing.T) {
	tables, err := Registry()["clustersweep"](clusterTiny())
	if err != nil {
		t.Fatal(err)
	}
	out := render(t, tables)
	if !strings.Contains(out, "Cluster dispatch") {
		t.Fatalf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "CoreRings") || !strings.Contains(out, "skewed3") {
		t.Fatalf("missing sweep rows:\n%s", out)
	}
}

func TestClusterSweepUnknownBenchmark(t *testing.T) {
	o := clusterTiny()
	o.Benchmarks = []string{"NoSuchBenchmark"}
	if _, err := ClusterSweepReport(o); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}
