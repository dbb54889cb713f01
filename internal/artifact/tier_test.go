package artifact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"slices"
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
// plan into the artifact: 4-bit sub-symbols, two a cycle.
func buildTieredArtifact(t testing.TB) (*Artifact, *automata.NFA) {
	return buildTieredArtifactAt(t, 4, 2)
}

// buildTieredArtifactAt is buildTieredArtifact at another geometry: bits per
// sub-symbol (the DFA tables' rows hold 1<<bits entries) and sub-symbols a
// cycle.
func buildTieredArtifactAt(t testing.TB, bits, dims int) (*Artifact, *automata.NFA) {
	return buildTieredRules(t, bits, dims, []regexc.Rule{
		{Pattern: "a.{12}b", Code: 1},
		{Pattern: "literal", Code: 2},
		{Pattern: "keyword", Code: 3},
	})
}

// buildByteTieredArtifact is a tiered artifact whose DFA steps bytes: rules
// over the letters a to d, 4-bit sub-symbols four a cycle, so each of the
// cycle's two bytes has 2 × 5 classes.
func buildByteTieredArtifact(t testing.TB) (*Artifact, *automata.NFA) {
	a, n := buildTieredRules(t, 4, 4, []regexc.Rule{
		{Pattern: "ab+c", Code: 1},
		{Pattern: "^dab", Code: 2},
		{Pattern: "c.*dd", Code: 3},
	})
	if d := a.Tier.DFA; d == nil || d.Step() != 2 {
		t.Fatalf("fixture changed: the DFA tier is %v", d)
	}
	return a, n
}

// buildTieredRules is buildTieredArtifactAt over rules of its own.
func buildTieredRules(t testing.TB, bits, dims int, rules []regexc.Rule) (*Artifact, *automata.NFA) {
	t.Helper()
	n := regexc.MustCompile(rules)
	res, err := core.Compile(n, core.Config{
		TargetBits: bits, StrideDims: dims,
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
	a.Tier = res.Tier
	return a, n
}

// TestTierRoundTrip pins the v2 sections: a sealed tier plan survives
// save/load bit-exactly, re-saving is byte-identical, and the loaded plan
// unseals into an execution form that reproduces the original reports.
func TestTierRoundTrip(t *testing.T) {
	a, _ := buildTieredArtifact(t)
	if len(a.Tier.Plan.CCs) == 0 || a.Tier.DFA == nil {
		t.Fatalf("tiered artifact has an empty tier plan: %+v", a.Tier.Plan)
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

	// Stat sizes the tier sections without decoding them.
	info, err := Stat(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if info.Sections["TIER"] <= 0 || info.Sections["DFAT"] <= 0 {
		t.Fatalf("stat misses tier sections: %v", info.Sections)
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
		// The decoder checks framing only; dfa.Unseal, which every
		// Machine build runs, refuses a plan whose DFA tables are gone.
		i := find("DFAT")
		cut := append(append([][]byte(nil), chunks[:i]...), chunks[i+1:]...)
		b, err := Load(bytes.NewReader(rebuild(raw, cut)))
		if err != nil {
			t.Fatalf("decoder refused a well-framed plan: %v", err)
		}
		const want = "dfa: sealed DFA tables inconsistent with plan"
		if _, err := dfa.Unseal(b.NFA, b.Tier); err == nil || err.Error() != want {
			t.Fatalf("plan claiming a DFA tier unsealed without its table: %v, want %q", err, want)
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

	// The DFAT section: 8 bytes of geometry and start state, one u32 state
	// count per stride phase, the u32 report-entry count, then the phase
	// tables (u16), the 16-byte cycle-boundary records and the 12-byte
	// entries. Every lie must be refused as corrupt before it sizes an
	// allocation: inside FuzzLoad's budget, and never by a panic.
	r := a.Tier.DFA.Raw()
	stride, rows0, rows1 := r.Stride, len(r.Tab[0])>>r.Bits, len(r.Tab[1])>>r.Bits
	if stride != 2 || len(r.Entries) == 0 {
		t.Fatalf("fixture changed: stride %d, %d report entries", stride, len(r.Entries))
	}
	const hdr = 8
	tables := hdr + 4*stride + 4
	cycles := tables + 2*r.NumStates()<<r.Bits
	reporting := slices.IndexFunc(r.Cycles, func(c dfa.CycleState) bool { return c.NRep > 0 })
	last := tables + 2*len(r.Tab[0]) // the last phase's table
	for name, edit := range map[string]func(p []byte){
		// A successor equal to its target phase's count. The decode reads a
		// table four entries at a time, so the rows put one in each lane.
		"DFAT successor out of range": func(p []byte) {
			binary.LittleEndian.PutUint16(p[tables:], uint16(rows1))
		},
		"DFAT successor out of range at index 1 of phase 0": func(p []byte) {
			binary.LittleEndian.PutUint16(p[tables+2:], uint16(rows1))
		},
		"DFAT successor out of range in phase 0's last entry": func(p []byte) {
			binary.LittleEndian.PutUint16(p[last-2:], uint16(rows1))
		},
		"DFAT last-phase successor past the cycle-boundary states": func(p []byte) {
			binary.LittleEndian.PutUint16(p[last:], uint16(rows0))
		},
		"DFAT last-phase successor out of range at index 2 mod 4": func(p []byte) {
			binary.LittleEndian.PutUint16(p[last+2*(len(r.Tab[1])-2):], uint16(rows0))
		},
		"DFAT phase count above 65,536": func(p []byte) {
			binary.LittleEndian.PutUint32(p[hdr:], dfa.MaxPhaseStates+1)
		},
		"DFAT phase count that outgrows the section": func(p []byte) {
			binary.LittleEndian.PutUint32(p[hdr+4:], uint32(rows1+1))
		},
		"DFAT entry count that leaves bytes over": func(p []byte) {
			binary.LittleEndian.PutUint32(p[hdr+4*stride:], uint32(len(r.Entries)-1))
		},
		"DFAT entry count in the billions": func(p []byte) {
			binary.LittleEndian.PutUint32(p[hdr+4*stride:], 1<<31-1)
		},
		"DFAT report range that starts past the entries": func(p []byte) {
			binary.LittleEndian.PutUint32(p[cycles+16*reporting+8:], uint32(len(r.Entries)))
		},
		"DFAT report range that runs past the entries": func(p []byte) {
			binary.LittleEndian.PutUint16(p[cycles+16*reporting+12:], uint16(len(r.Entries)+1))
		},
		"DFAT start state past phase 0": func(p []byte) {
			binary.LittleEndian.PutUint16(p[4:], uint16(rows0))
		},
		"DFAT parity of 2":         func(p []byte) { p[cycles+14] = 2 },
		"DFAT non-zero record pad": func(p []byte) { p[cycles+15] = 1 },
		// The step byte is the automaton's to set: its sub-symbols here have
		// too many classes for a byte a lookup.
		"DFAT step of a byte on an automaton that steps sub-symbols": func(p []byte) { p[3] = 2 },
		"DFAT step of 0": func(p []byte) { p[3] = 0 },
	} {
		t.Run(name, func(t *testing.T) { refusesDFATEdit(t, raw, edit) })
	}

	// A DFA that steps bytes: 4-bit sub-symbols four a cycle, two tables.
	b, _ := buildByteTieredArtifact(t)
	braw := saveBytes(t, b)
	for name, edit := range map[string]func(p []byte){
		"DFAT step of a sub-symbol on an automaton that steps bytes":    func(p []byte) { p[3] = 1 },
		"DFAT step of four sub-symbols, one table for a two-byte cycle": func(p []byte) { p[3] = 4 },
	} {
		t.Run(name, func(t *testing.T) { refusesDFATEdit(t, braw, edit) })
	}
}

// refusesDFATEdit fails unless raw with its DFAT payload edited is refused as
// corrupt by Load within its allocation budget.
func refusesDFATEdit(t *testing.T, raw []byte, edit func(p []byte)) {
	t.Helper()
	ids, chunks := sections(t, raw)
	i := slices.Index(ids, "DFAT")
	mut := append([][]byte(nil), chunks...)
	mut[i] = append([]byte(nil), chunks[i]...)
	edit(mut[i][12:])
	data := rebuild(raw, mut)
	_, got, err := loadAlloc(data)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("accepted: %v", err)
	}
	if budget := uint64(loadAllocFactor*len(data) + loadAllocSlack + loadAllocGroup*placementGroups(data)); got > budget {
		t.Fatalf("allocated %d bytes refusing %d, budget %d", got, len(data), budget)
	}
}
