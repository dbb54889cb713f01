package artifact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"

	"impala/internal/topo"
)

// buildTopoArtifact seals a 4-shard artifact with a 2-domain placement.
func buildTopoArtifact(t testing.TB) *Artifact {
	t.Helper()
	a, _ := buildShardedArtifact(t, false)
	tp := topo.Topology{Domains: []topo.Domain{
		{Name: "n0", StateCapacity: 4096},
		{Name: "n1", Bandwidth: 2},
	}}
	mw, err := topo.MergeWeights(a.NFA, a.Shards.Plan)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := topo.Place(a.Shards.Plan, mw, tp, topo.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	a.SetTopo(&topo.Sealed{Topology: tp, ShardDomain: pl.ShardDomain})
	return a
}

// TestTopoRoundTrip pins the v4 TOPO section: a sealed placement survives
// save/load bit-exactly (in normalized form — explicit bandwidths and cost
// matrix), and re-saving the loaded artifact is byte-identical.
func TestTopoRoundTrip(t *testing.T) {
	a := buildTopoArtifact(t)
	raw := saveBytes(t, a)

	got, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got.Topo == nil {
		t.Fatal("topology placement lost in round trip")
	}
	if !reflect.DeepEqual(got.Topo, a.Topo) {
		t.Fatalf("sealed topology diverges:\n%+v\n%+v", got.Topo, a.Topo)
	}
	// SetTopo normalizes, so the sealed form is fully explicit.
	if got.Topo.Topology.Cost == nil || got.Topo.Topology.Domains[0].Bandwidth != 1 {
		t.Fatalf("sealed topology not normalized: %+v", got.Topo.Topology)
	}
	resaved := saveBytes(t, got)
	if !bytes.Equal(raw, resaved) {
		t.Fatalf("save(load(save)) not byte-identical: %d vs %d bytes", len(resaved), len(raw))
	}

	info, err := Stat(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if info.Sections["TOPO"] <= 0 {
		t.Fatalf("stat misses TOPO section: %v", info.Sections)
	}
	if info.Version != Version {
		t.Fatalf("version %d, want %d", info.Version, Version)
	}
}

// TestSetTopoNil clears the section.
func TestSetTopoNil(t *testing.T) {
	a := buildTopoArtifact(t)
	a.SetTopo(nil)
	if a.Topo != nil {
		t.Fatal("SetTopo(nil) left a placement")
	}
	got, err := Load(bytes.NewReader(saveBytes(t, a)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Topo != nil {
		t.Fatal("cleared topology reappeared after round trip")
	}
}

// TestTopoRequiresShards: a TOPO section makes no sense without the shard
// plan it places — rejected on save and on load.
func TestTopoRequiresShards(t *testing.T) {
	a := buildTopoArtifact(t)
	noShards := *a
	noShards.Shards = nil
	var buf bytes.Buffer
	if err := noShards.Save(&buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Save accepted TOPO without SHRD: %v", err)
	}

	// Load side: strip the SHRD section from a valid file, keeping TOPO.
	raw := saveBytes(t, a)
	ids, chunks := sections(t, raw)
	var kept [][]byte
	for i, id := range ids {
		if id != "SHRD" {
			kept = append(kept, chunks[i])
		}
	}
	if len(kept) == len(chunks) {
		t.Fatal("SHRD section not found")
	}
	if _, err := Load(bytes.NewReader(rebuild(raw, kept))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("TOPO without SHRD loaded: %v", err)
	}
}

func TestTopoCorruptionPaths(t *testing.T) {
	a := buildTopoArtifact(t)
	raw := saveBytes(t, a)
	ids, chunks := sections(t, raw)
	find := func(id string) int {
		for i, s := range ids {
			if s == id {
				return i
			}
		}
		t.Fatalf("section %s not found in %v", id, ids)
		return -1
	}
	tp := find("TOPO")
	sec := chunks[tp]
	nshards := len(a.Topo.ShardDomain)

	// Mutate n bytes at a section-relative offset from the END of the TOPO
	// payload (the shard list's layout is fixed there regardless of the
	// variable-length domain names).
	mutTail := func(fromEnd int, put func([]byte)) [][]byte {
		mut := append([][]byte(nil), chunks...)
		cp := append([]byte(nil), sec...)
		put(cp[len(cp)-fromEnd:])
		mut[tp] = cp
		return mut
	}

	t.Run("shard placed on out-of-range domain", func(t *testing.T) {
		mut := mutTail(4, func(b []byte) { binary.LittleEndian.PutUint32(b, 99) })
		if _, err := Load(bytes.NewReader(rebuild(raw, mut))); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("out-of-range domain accepted: %v", err)
		}
	})
	t.Run("shard count lie overruns section", func(t *testing.T) {
		mut := mutTail(4*nshards+4, func(b []byte) { binary.LittleEndian.PutUint32(b, 1<<30) })
		if _, err := Load(bytes.NewReader(rebuild(raw, mut))); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("shard-count lie accepted: %v", err)
		}
	})
	t.Run("shard count short of plan", func(t *testing.T) {
		// Fewer placed shards than the plan's count decodes cleanly but
		// fails the cross-section validation.
		mut := append([][]byte(nil), chunks...)
		cp := append([]byte(nil), sec...)
		binary.LittleEndian.PutUint32(cp[len(cp)-4*nshards-4:], uint32(nshards-1))
		cp = cp[:len(cp)-4]
		binary.LittleEndian.PutUint64(cp[4:12], uint64(len(cp)-12))
		mut[tp] = cp
		if _, err := Load(bytes.NewReader(rebuild(raw, mut))); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("short placement accepted: %v", err)
		}
	})
	t.Run("NaN bandwidth", func(t *testing.T) {
		// Domain 0 ("n0"): payload = u32 nd, then u16 len + "n0" + u32 cap,
		// then the f64 bandwidth at payload offset 4+2+2+4 = 12.
		mut := append([][]byte(nil), chunks...)
		cp := append([]byte(nil), sec...)
		binary.LittleEndian.PutUint64(cp[12+12:], math.Float64bits(math.NaN()))
		mut[tp] = cp
		if _, err := Load(bytes.NewReader(rebuild(raw, mut))); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("NaN bandwidth accepted: %v", err)
		}
	})
	t.Run("domain count lie", func(t *testing.T) {
		mut := append([][]byte(nil), chunks...)
		cp := append([]byte(nil), sec...)
		binary.LittleEndian.PutUint32(cp[12:], 1<<20)
		mut[tp] = cp
		if _, err := Load(bytes.NewReader(rebuild(raw, mut))); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("domain-count lie accepted: %v", err)
		}
	})
	t.Run("trailing bytes in TOPO", func(t *testing.T) {
		mut := append([][]byte(nil), chunks...)
		cp := append([]byte(nil), sec...)
		cp = append(cp, 0xAB, 0xCD)
		binary.LittleEndian.PutUint64(cp[4:12], uint64(len(cp)-12))
		mut[tp] = cp
		if _, err := Load(bytes.NewReader(rebuild(raw, mut))); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("trailing TOPO bytes accepted: %v", err)
		}
	})
	t.Run("duplicate TOPO section", func(t *testing.T) {
		dup := append(append([][]byte(nil), chunks...), chunks[tp])
		if _, err := Load(bytes.NewReader(rebuild(raw, dup))); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("duplicate TOPO accepted: %v", err)
		}
	})
}

// TestVersionIsEight: the format version moved to 8 when a DFA that steps
// bytes got one table per byte of the cycle; loaders reject anything else by
// design, so pin it.
func TestVersionIsEight(t *testing.T) {
	if Version != 8 {
		t.Fatalf("artifact version = %d, want 8", Version)
	}
}

// Files sealed by older builds are refused by their version, before any
// section is looked at: v5.impala is tiered, with the int32 DFAT layout
// version 6 replaced; v6.impala is scored, with the META plan summaries
// version 7 dropped.
func TestLoadRefusesVersion5File(t *testing.T) { refusesVersion(t, "testdata/v5.impala", 5) }
func TestLoadRefusesVersion6File(t *testing.T) { refusesVersion(t, "testdata/v6.impala", 6) }

func refusesVersion(t *testing.T, path string, version int) {
	if _, err := LoadFile(path); !errors.Is(err, ErrVersion) {
		t.Fatalf("version-%d artifact: %v, want ErrVersion", version, err)
	}
	if _, err := StatFile(path); !errors.Is(err, ErrVersion) {
		t.Fatalf("version-%d artifact stat: %v, want ErrVersion", version, err)
	}
}
