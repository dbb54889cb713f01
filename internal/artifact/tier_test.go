package artifact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"impala/internal/automata"
	"impala/internal/core"
	"impala/internal/dfa"
	"impala/internal/place"
	"impala/internal/regexc"
	"impala/internal/sim"
)

// buildTieredArtifact compiles a rule set whose tier plan is mixed (one
// component blows the CC budget, the literals determinize) and seals the
// plan into the artifact.
func buildTieredArtifact(t testing.TB) (*Artifact, *automata.NFA) {
	t.Helper()
	n := regexc.MustCompile([]regexc.Rule{
		{Pattern: "a.{12}b", Code: 1},
		{Pattern: "literal", Code: 2},
		{Pattern: "keyword", Code: 3},
	})
	res, err := core.Compile(n, core.Config{
		TargetBits: 4, StrideDims: 2,
		Tier: &dfa.TierOptions{CCMaxStates: 1024, MinStateShare: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := place.Place(res.NFA, place.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	a := New(res.NFA, pl, n, Meta{Seed: 3, CreatedUnix: 1700000000}, nil)
	a.SetTier(res.Tiers.Seal())
	return a, n
}

// TestTierRoundTrip pins the v2 sections: a sealed tier plan survives
// save/load bit-exactly, re-saving is byte-identical, and the loaded plan
// unseals into an execution form that reproduces the original reports.
func TestTierRoundTrip(t *testing.T) {
	a, _ := buildTieredArtifact(t)
	if a.Meta.TierCCs == 0 || a.Meta.TierDFAStates == 0 {
		t.Fatalf("tiered artifact has empty tier summary: %+v", a.Meta)
	}
	raw := saveBytes(t, a)

	got, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got.Tier == nil {
		t.Fatal("tier plan lost in round trip")
	}
	if !reflect.DeepEqual(got.Tier.Plan, a.Tier.Plan) {
		t.Fatalf("plan diverges:\n%+v\n%+v", got.Tier.Plan, a.Tier.Plan)
	}
	if !reflect.DeepEqual(got.Tier.DFA, a.Tier.DFA) {
		t.Fatal("DFA tables diverge across round trip")
	}
	if got.Meta != a.Meta {
		t.Fatalf("meta diverges: %+v vs %+v", got.Meta, a.Meta)
	}
	resaved := saveBytes(t, got)
	if !bytes.Equal(raw, resaved) {
		t.Fatalf("save(load(save)) not byte-identical: %d vs %d bytes", len(resaved), len(raw))
	}

	// The loaded plan must unseal against the loaded automaton and match
	// both the original tiered engine and the scalar simulator.
	restored, err := dfa.Unseal(got.NFA, got.Tier)
	if err != nil {
		t.Fatalf("unseal: %v", err)
	}
	input := []byte("xx literal aXXXXXXXXXXXXb keyword literal")
	want, _, err := sim.Run(got.NFA, input)
	if err != nil {
		t.Fatal(err)
	}
	have, _ := restored.Run(input)
	if !reflect.DeepEqual(want, have) {
		t.Fatalf("unsealed run != scalar\nscalar=%v\ntiered=%v", want, have)
	}

	// Stat surfaces the tier sections and summary without a full decode.
	info, err := Stat(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if info.Sections["TIER"] <= 0 || info.Sections["DFAT"] <= 0 {
		t.Fatalf("stat misses tier sections: %v", info.Sections)
	}
	if info.Meta.TierCCs != a.Meta.TierCCs || info.Meta.TierDFAStates != a.Meta.TierDFAStates {
		t.Fatalf("stat tier summary diverges: %+v", info.Meta)
	}
}

// sections splits a saved body into ordered (id, full-section-bytes) pairs.
func sections(t testing.TB, raw []byte) (ids []string, chunks [][]byte) {
	t.Helper()
	body := raw[16:]
	for off := 0; off < len(body); {
		id := string(body[off : off+4])
		length := int(binary.LittleEndian.Uint64(body[off+4 : off+12]))
		ids = append(ids, id)
		chunks = append(chunks, body[off:off+12+length])
		off += 12 + length
	}
	return ids, chunks
}

// rebuild reassembles a file from section chunks with a fresh CRC.
func rebuild(raw []byte, chunks [][]byte) []byte {
	out := append([]byte(nil), raw[:16]...)
	for _, c := range chunks {
		out = append(out, c...)
	}
	return restamp(out)
}

func TestTierCorruptionPaths(t *testing.T) {
	a, _ := buildTieredArtifact(t)
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

	t.Run("DFAT without TIER", func(t *testing.T) {
		i := find("TIER")
		cut := append(append([][]byte(nil), chunks[:i]...), chunks[i+1:]...)
		if _, err := Load(bytes.NewReader(rebuild(raw, cut))); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("DFAT without TIER accepted: %v", err)
		}
	})
	t.Run("TIER without DFAT", func(t *testing.T) {
		i := find("DFAT")
		cut := append(append([][]byte(nil), chunks[:i]...), chunks[i+1:]...)
		if _, err := Load(bytes.NewReader(rebuild(raw, cut))); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("plan claiming a DFA tier loaded without its table: %v", err)
		}
	})
	t.Run("truncated TIER payload", func(t *testing.T) {
		i := find("TIER")
		mut := append([][]byte(nil), chunks...)
		sec := append([]byte(nil), chunks[i]...)
		length := binary.LittleEndian.Uint64(sec[4:12])
		binary.LittleEndian.PutUint64(sec[4:12], length-4)
		mut[i] = sec[:len(sec)-4]
		if _, err := Load(bytes.NewReader(rebuild(raw, mut))); err == nil {
			t.Fatal("truncated TIER accepted")
		}
	})
	t.Run("META tier summary mismatch", func(t *testing.T) {
		lying := *a
		lying.Meta.TierDFAStates++
		var buf bytes.Buffer
		if err := lying.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("lying tier summary accepted: %v", err)
		}
	})
	t.Run("DFAT successor out of range", func(t *testing.T) {
		i := find("DFAT")
		mut := append([][]byte(nil), chunks...)
		sec := append([]byte(nil), chunks[i]...)
		// First transition-table entry sits after the 12-byte section
		// header and the 12-byte DFAT header.
		binary.LittleEndian.PutUint32(sec[12+12:], 1<<30)
		mut[i] = sec
		if _, err := Load(bytes.NewReader(rebuild(raw, mut))); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("out-of-range successor accepted: %v", err)
		}
	})
}
