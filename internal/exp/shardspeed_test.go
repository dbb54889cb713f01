package exp

import (
	"strings"
	"testing"
)

// shardTiny keeps the sweep sub-second: one component-rich benchmark at a
// small scale, tiny input.
func shardTiny() Options {
	return Options{Scale: 0.004, Seed: 1, InputKB: 4, Benchmarks: []string{"RandomForest"}}
}

func TestShardSpeedReport(t *testing.T) {
	o := shardTiny()
	rep, err := ShardSpeedReport(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scale != o.Scale || rep.Seed != o.Seed || rep.InputKB != o.InputKB || rep.GOMAXPROCS < 1 {
		t.Fatalf("bad report envelope: %+v", rep)
	}
	if len(rep.Cells) != 1 {
		t.Fatalf("%d cells, want 1", len(rep.Cells))
	}
	c := rep.Cells[0]
	if c.Benchmark != "RandomForest" || c.States <= 0 || c.CCs <= 0 || c.Budget != 4*c.States {
		t.Fatalf("bad cell envelope: %+v", c)
	}
	if len(c.Ks) != len(shardSpeedKs) {
		t.Fatalf("%d sweep points, want %d", len(c.Ks), len(shardSpeedKs))
	}
	for i, kc := range c.Ks {
		if kc.Shards != shardSpeedKs[i] {
			t.Fatalf("point %d swept K=%d, want %d", i, kc.Shards, shardSpeedKs[i])
		}
		if kc.MBPerSec <= 0 || kc.WallMS <= 0 || kc.SpeedupVs1 <= 0 {
			t.Fatalf("K=%d has zeroed measurements: %+v", kc.Shards, kc)
		}
		if kc.MaxShardStates < kc.MinShardStates || kc.MaxShardStates > c.States {
			t.Fatalf("K=%d shard-state bounds out of range: %+v", kc.Shards, kc)
		}
		if kc.TieredShards > kc.Shards || kc.NFATierStates > c.States {
			t.Fatalf("K=%d tier split out of range: %+v", kc.Shards, kc)
		}
	}
	if c.Ks[0].SpeedupVs1 != 1 {
		t.Fatalf("K=1 speedup %v, want 1", c.Ks[0].SpeedupVs1)
	}

	back := roundTrip(t, rep, "shardspeed")
	if len(back.Cells) != 1 || back.Cells[0].Benchmark != c.Benchmark || len(back.Cells[0].Ks) != len(c.Ks) {
		t.Fatalf("JSON round trip diverges: %+v", back)
	}
}

func TestShardSpeedRunner(t *testing.T) {
	tables, err := Registry()["shardspeed"](shardTiny())
	if err != nil {
		t.Fatal(err)
	}
	out := render(t, tables)
	if !strings.Contains(out, "Sharded execution") {
		t.Fatalf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "RandomForest") {
		t.Fatalf("missing benchmark row:\n%s", out)
	}
}

func TestShardSpeedUnknownBenchmark(t *testing.T) {
	o := shardTiny()
	o.Benchmarks = []string{"NoSuchBenchmark"}
	if _, err := ShardSpeedReport(o); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}
