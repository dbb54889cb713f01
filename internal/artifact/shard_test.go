package artifact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"impala/internal/automata"
	"impala/internal/core"
	"impala/internal/dfa"
	"impala/internal/place"
	"impala/internal/regexc"
	"impala/internal/shard"
	"impala/internal/sim"
)

// buildShardedArtifact compiles a multi-component rule set sharded four
// ways — tier-planned per shard when tiered is set — and seals the
// partition into the artifact.
func buildShardedArtifact(t testing.TB, tiered bool) (*Artifact, *automata.NFA) {
	t.Helper()
	n := regexc.MustCompile([]regexc.Rule{
		{Pattern: "a.{12}b", Code: 1},
		{Pattern: "literal", Code: 2},
		{Pattern: "keyword", Code: 3},
		{Pattern: "ab[cd]ef", Code: 4},
		{Pattern: "zz.?zz", Code: 5},
	})
	cfg := core.Config{TargetBits: 4, StrideDims: 2, Shards: 4}
	if tiered {
		cfg.Tier = &dfa.TierOptions{CCMaxStates: 1024, MinStateShare: -1}
	}
	res, err := core.Compile(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := place.Place(res.NFA, place.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	a := New(res.NFA, pl, n, Meta{Seed: 3, CreatedUnix: 1700000000}, nil)
	a.Shards = res.Shards
	return a, n
}

// TestShardRoundTrip pins the v3 SHRD section: a sealed shard partition —
// with and without per-shard tier seals — survives save/load bit-exactly,
// re-saving is byte-identical, and the loaded plan unseals into a sharded
// engine that reproduces the scalar simulator's reports.
func TestShardRoundTrip(t *testing.T) {
	for _, tiered := range []bool{false, true} {
		name := "untiered"
		if tiered {
			name = "tiered"
		}
		t.Run(name, func(t *testing.T) {
			a, _ := buildShardedArtifact(t, tiered)
			if a.Shards.Plan.Shards != 4 {
				t.Fatalf("sharded artifact has %d shards, want 4", a.Shards.Plan.Shards)
			}
			raw := saveBytes(t, a)

			got, err := Load(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			if got.Shards == nil {
				t.Fatal("shard plan lost in round trip")
			}
			if !reflect.DeepEqual(got.Shards.Plan, a.Shards.Plan) {
				t.Fatalf("plan diverges:\n%+v\n%+v", got.Shards.Plan, a.Shards.Plan)
			}
			if !reflect.DeepEqual(got.Shards.Tiers, a.Shards.Tiers) {
				t.Fatal("per-shard tier seals diverge across round trip")
			}
			if got.Meta != a.Meta {
				t.Fatalf("meta diverges: %+v vs %+v", got.Meta, a.Meta)
			}
			resaved := saveBytes(t, got)
			if !bytes.Equal(raw, resaved) {
				t.Fatalf("save(load(save)) not byte-identical: %d vs %d bytes", len(resaved), len(raw))
			}

			restored, err := shard.Unseal(got.NFA, got.Shards)
			if err != nil {
				t.Fatalf("unseal: %v", err)
			}
			input := []byte("xx literal aXXXXXXXXXXXXb keyword abdef zzYzz literal")
			want, _, err := sim.Run(got.NFA, input)
			if err != nil {
				t.Fatal(err)
			}
			have, _ := restored.Run(input)
			if !reflect.DeepEqual(want, have) {
				t.Fatalf("unsealed run != scalar\nscalar=%v\nsharded=%v", want, have)
			}

			info, err := Stat(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			if info.Sections["SHRD"] <= 0 {
				t.Fatalf("stat misses SHRD section: %v", info.Sections)
			}
		})
	}
}

func TestShardCorruptionPaths(t *testing.T) {
	a, _ := buildShardedArtifact(t, true)
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
	shrd := find("SHRD")
	// SHRD payload starts after the 12-byte section header: u32 shard
	// count, u32 component count, then (u32 shard, u32 states) per
	// component.
	mutate := func(off int, v uint32) [][]byte {
		mut := append([][]byte(nil), chunks...)
		sec := append([]byte(nil), chunks[shrd]...)
		binary.LittleEndian.PutUint32(sec[12+off:], v)
		mut[shrd] = sec
		return mut
	}
	// A plan that lies about its partition decodes: the decoder checks
	// framing only, and shard.Unseal — which every Machine build runs —
	// is the one check of the plan against the automaton.
	refusedAtUnseal := func(t *testing.T, mut [][]byte, want string) {
		t.Helper()
		b, err := Load(bytes.NewReader(rebuild(raw, mut)))
		if err != nil {
			t.Fatalf("decoder refused a well-framed plan: %v", err)
		}
		if _, err := shard.Unseal(b.NFA, b.Shards); err == nil || err.Error() != want {
			t.Fatalf("unseal error %v, want %q", err, want)
		}
	}

	t.Run("shard count lie", func(t *testing.T) {
		refusedAtUnseal(t, mutate(0, 5), "shard: sealed plan has 5 shards but 4 tier entries")
	})
	t.Run("component assigned out of range", func(t *testing.T) {
		refusedAtUnseal(t, mutate(8, 99), "shard: sealed component 0 assigned to shard 99 of 4")
	})
	t.Run("component state-count lie", func(t *testing.T) {
		want := fmt.Sprintf("shard: sealed component 0 has 1048576 states, automaton has %d",
			len(a.NFA.ConnectedComponents()[0]))
		refusedAtUnseal(t, mutate(12, 1<<20), want)
	})
	t.Run("truncated SHRD payload", func(t *testing.T) {
		mut := append([][]byte(nil), chunks...)
		sec := append([]byte(nil), chunks[shrd]...)
		length := binary.LittleEndian.Uint64(sec[4:12])
		binary.LittleEndian.PutUint64(sec[4:12], length-4)
		mut[shrd] = sec[:len(sec)-4]
		if _, err := Load(bytes.NewReader(rebuild(raw, mut))); err == nil {
			t.Fatal("truncated SHRD accepted")
		}
	})
	t.Run("SHRD and TIER together rejected", func(t *testing.T) {
		both := *a
		both.Tier = &dfa.Sealed{}
		var buf bytes.Buffer
		if err := both.Save(&buf); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Save accepted TIER+SHRD: %v", err)
		}
	})
	t.Run("duplicate SHRD section", func(t *testing.T) {
		dup := append(append([][]byte(nil), chunks...), chunks[shrd])
		if _, err := Load(bytes.NewReader(rebuild(raw, dup))); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("duplicate SHRD accepted: %v", err)
		}
	})
}
