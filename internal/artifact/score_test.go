package artifact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"

	"impala/internal/automata"
	"impala/internal/core"
	"impala/internal/dfa"
	"impala/internal/place"
	"impala/internal/score"
	"impala/internal/shard"
	"impala/internal/sim"
	"impala/internal/topo"
	"impala/internal/workload"
)

// buildScoredArtifact compiles a scored Levenshtein mesh at (4,2) and seals
// the output weight table beside whatever plans cfg asks for (its Tier and
// Shards; a sharded one is also placed on two domains), returning the
// artifact and the match input used by the functional round-trip check.
func buildScoredArtifact(t testing.TB, cfg core.Config) (*Artifact, []byte) {
	t.Helper()
	pats := [][]byte{[]byte("ACGTACGT"), []byte("TTGACCAT")}
	n, w, err := workload.ScoredLevenshtein(pats, 2, workload.DefaultAlignCosts, -6)
	if err != nil {
		t.Fatal(err)
	}
	cfg.TargetBits, cfg.StrideDims, cfg.Weights = 4, 2, w
	res, err := core.Compile(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := place.Place(res.NFA, place.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	a := New(res.NFA, pl, n, Meta{Seed: 3, CreatedUnix: 1700000000}, nil)
	a.Score = res.Weights.Clone() // in the shape Load decodes: zero-edge rows nil
	if res.Tier != nil {
		a.Tier = res.Tier
	}
	if res.Shards != nil {
		a.Shards = res.Shards
		domain := make([]int, cfg.Shards)
		for k := range domain {
			domain[k] = k % 2
		}
		a.SetTopo(&topo.Sealed{Topology: topo.Topology{Domains: []topo.Domain{{Name: "n0"}, {Name: "n1"}}}, ShardDomain: domain})
	}
	input := append(append([]byte("GGGG"), pats[0]...), []byte("CCCCTTGAACATGGGG")...)
	return a, input
}

// scoredReports runs the sealed scored machine over input.
func scoredReports(t *testing.T, n *automata.NFA, w *automata.Weights, input []byte) []sim.Report {
	t.Helper()
	m, err := score.Compile(n, w)
	if err != nil {
		t.Fatalf("score compile: %v", err)
	}
	reports, _ := m.Run(input)
	return reports
}

// TestScoreRoundTrip pins the SCOR section: the weight table and threshold
// survive save/load bit-exactly, re-saving is byte-identical, Stat sizes the
// section without decoding it, and the loaded machine produces the same
// scored reports as the pre-save one.
func TestScoreRoundTrip(t *testing.T) {
	a, input := buildScoredArtifact(t, core.Config{})
	raw := saveBytes(t, a)

	got, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got.Score == nil {
		t.Fatal("weight table lost in round trip")
	}
	if !reflect.DeepEqual(got.Score, a.Score) || got.Score.Threshold != -6 {
		t.Fatal("sealed weight table diverges after round trip")
	}
	resaved := saveBytes(t, got)
	if !bytes.Equal(raw, resaved) {
		t.Fatalf("save(load(save)) not byte-identical: %d vs %d bytes", len(resaved), len(raw))
	}

	info, err := Stat(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if info.Sections["SCOR"] <= 0 {
		t.Fatalf("stat misses SCOR section: %v", info.Sections)
	}

	want := scoredReports(t, a.NFA, a.Score, input)
	if len(want) == 0 {
		t.Fatal("scored machine found no reports — test input is inert")
	}
	if gotReports := scoredReports(t, got.NFA, got.Score, input); !reflect.DeepEqual(gotReports, want) {
		t.Fatalf("loaded machine reports diverge:\n%v\n%v", gotReports, want)
	}
}

// TestSetScoreNil: with its weight table set to nil a scored artifact saves
// and loads as an unscored one — nothing in META remembers the table.
func TestSetScoreNil(t *testing.T) {
	a, _ := buildScoredArtifact(t, core.Config{})
	a.Score = nil
	got, err := Load(bytes.NewReader(saveBytes(t, a)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Score != nil || got.Meta != a.Meta {
		t.Fatal("cleared weight table reappeared after round trip")
	}
}

// TestScoreComposesWithTierAndShards: SCOR rides beside TIER and DFAT, and
// beside SHRD and TOPO. A score belongs to a state and every plan moves whole
// components, so nothing is excluded: each form saves back the bytes it was
// loaded from, its plan unseals, and its weight table scores as before.
func TestScoreComposesWithTierAndShards(t *testing.T) {
	tier := &dfa.TierOptions{CCMaxStates: 1024, MinStateShare: -1}
	for _, tc := range []struct {
		name string
		cfg  core.Config
		want []string
	}{
		{"tiered", core.Config{Tier: tier}, []string{"META", "STAG", "AUTM", "PLAC", "TIER", "DFAT", "SCOR"}},
		{"3 shards, tiered", core.Config{Tier: tier, Shards: 3}, []string{"META", "STAG", "AUTM", "PLAC", "SHRD", "TOPO", "SCOR"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, input := buildScoredArtifact(t, tc.cfg)
			raw := saveBytes(t, a)
			if ids, _ := sections(t, raw); !slices.Equal(ids, tc.want) {
				t.Fatalf("sections %v, want %v", ids, tc.want)
			}
			got, err := Load(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			if !bytes.Equal(saveBytes(t, got), raw) {
				t.Fatal("save(load(save)) not byte-identical")
			}
			if got.Tier != nil {
				if _, err := dfa.Unseal(got.NFA, got.Tier); err != nil {
					t.Fatalf("tier plan does not unseal: %v", err)
				}
			}
			if got.Shards != nil {
				if _, err := shard.Unseal(got.NFA, got.Shards); err != nil {
					t.Fatalf("shard plan does not unseal: %v", err)
				}
			}
			want := scoredReports(t, a.NFA, a.Score, input)
			if len(want) == 0 {
				t.Fatal("scored machine found no reports — test input is inert")
			}
			if have := scoredReports(t, got.NFA, got.Score, input); !reflect.DeepEqual(have, want) {
				t.Fatalf("loaded machine reports diverge:\n%v\n%v", have, want)
			}
		})
	}
}

func TestScoreCorruptionPaths(t *testing.T) {
	a, _ := buildScoredArtifact(t, core.Config{})
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
	sc := find("SCOR")
	sec := chunks[sc]

	// mutAt rewrites bytes at a payload-relative offset (the 12-byte section
	// header shifts everything).
	mutAt := func(off int, put func([]byte)) [][]byte {
		mut := append([][]byte(nil), chunks...)
		cp := append([]byte(nil), sec...)
		put(cp[12+off:])
		mut[sc] = cp
		return mut
	}
	loadErr := func(mut [][]byte) error {
		_, err := Load(bytes.NewReader(rebuild(raw, mut)))
		return err
	}

	// SCOR payload layout: u32 ns, then per state f64 start + u32 count +
	// count×f64, then f64 threshold. State 0's fields sit at fixed offsets.
	t.Run("edge count lie overruns section", func(t *testing.T) {
		if err := loadErr(mutAt(12, func(b []byte) { binary.LittleEndian.PutUint32(b, 1<<30) })); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("edge-count lie accepted: %v", err)
		}
	})
	t.Run("state count lie overruns section", func(t *testing.T) {
		if err := loadErr(mutAt(0, func(b []byte) { binary.LittleEndian.PutUint32(b, 1<<30) })); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("state-count lie accepted: %v", err)
		}
	})
	t.Run("NaN start weight", func(t *testing.T) {
		mut := mutAt(4, func(b []byte) { binary.LittleEndian.PutUint64(b, math.Float64bits(math.NaN())) })
		if err := loadErr(mut); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("NaN weight accepted: %v", err)
		}
	})
	t.Run("weight beyond saturation limit", func(t *testing.T) {
		mut := mutAt(4, func(b []byte) {
			binary.LittleEndian.PutUint64(b, math.Float64bits(-2*automata.WeightLimit))
		})
		if err := loadErr(mut); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("oversized negative weight accepted: %v", err)
		}
	})
	t.Run("NaN threshold", func(t *testing.T) {
		mut := append([][]byte(nil), chunks...)
		cp := append([]byte(nil), sec...)
		binary.LittleEndian.PutUint64(cp[len(cp)-8:], math.Float64bits(math.NaN()))
		mut[sc] = cp
		if err := loadErr(mut); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("NaN threshold accepted: %v", err)
		}
	})
	t.Run("truncated weight table", func(t *testing.T) {
		mut := append([][]byte(nil), chunks...)
		cp := append([]byte(nil), sec[:len(sec)-4]...)
		binary.LittleEndian.PutUint64(cp[4:12], uint64(len(cp)-12))
		mut[sc] = cp
		if err := loadErr(mut); !errors.Is(err, ErrTruncated) {
			t.Fatalf("truncated SCOR accepted: %v", err)
		}
	})
	t.Run("shape lie caught against AUTM", func(t *testing.T) {
		// Keep the total edge count but move one weight between rows: the
		// per-state shape no longer parallels the automaton's out-edge lists.
		lying := a.Score.Clone()
		from, to := -1, -1
		for i := range lying.Edge {
			if len(lying.Edge[i]) > 0 && from < 0 {
				from = i
			} else if from >= 0 {
				to = i
				break
			}
		}
		lying.Edge[from] = lying.Edge[from][:len(lying.Edge[from])-1]
		lying.Edge[to] = append(lying.Edge[to], 0)
		var fresh bytes.Buffer
		writeSection(&fresh, "SCOR", encodeSection("SCOR", &Artifact{Score: lying}))
		mut := append([][]byte(nil), chunks...)
		mut[sc] = fresh.Bytes()
		if err := loadErr(mut); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("shape lie accepted: %v", err)
		}
	})
	t.Run("duplicate SCOR section", func(t *testing.T) {
		dup := append(append([][]byte(nil), chunks...), chunks[sc])
		if err := loadErr(dup); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("duplicate SCOR accepted: %v", err)
		}
	})
	t.Run("v4 container with SCOR section", func(t *testing.T) {
		// A hand-crafted down-versioned container must be rejected by the
		// version gate — SCOR never existed in v4, so there is no legacy
		// decode path to fall into.
		old := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint16(old[6:], 4)
		if _, err := Load(bytes.NewReader(restamp(old))); !errors.Is(err, ErrVersion) {
			t.Fatalf("v4+SCOR container accepted: %v", err)
		}
	})
}
