package artifact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"impala/internal/automata"
	"impala/internal/core"
	"impala/internal/interconnect"
	"impala/internal/place"
	"impala/internal/sim"
	"impala/internal/workload"
)

// buildArtifact compiles a benchmark at the given stride and wraps the
// result as an artifact, returning the artifact alongside the original
// (untransformed) automaton for differential checks.
func buildArtifact(t testing.TB, bench string, stride int) (*Artifact, *automata.NFA) {
	t.Helper()
	b, ok := workload.Get(bench)
	if !ok {
		t.Fatalf("unknown benchmark %s", bench)
	}
	n, err := b.Generate(0.004, 7)
	if err != nil {
		t.Fatalf("%s: generate: %v", bench, err)
	}
	res, err := core.Compile(n, core.Config{TargetBits: 4, StrideDims: stride})
	if err != nil {
		t.Fatalf("%s: compile: %v", bench, err)
	}
	pl, err := place.Place(res.NFA, place.Options{Seed: 3})
	if err != nil {
		t.Fatalf("%s: place: %v", bench, err)
	}
	stages := make([]Stage, 0, len(res.Stages))
	for _, st := range res.Stages {
		stages = append(stages, Stage{
			Name: st.Name, States: st.States, Transitions: st.Transitions,
			Duration: st.Duration, CPUTime: st.CPUTime,
		})
	}
	a := New(res.NFA, pl, n, Meta{Seed: 3, CreatedUnix: 1700000000}, stages)
	return a, n
}

func saveBytes(t testing.TB, a *Artifact) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	return buf.Bytes()
}

// TestRoundTripAcrossFamilies is the format's core property: for one
// benchmark per workload family across stride factors, a loaded artifact
// must report byte-identically with the compiled machine it was saved
// from, and re-saving the loaded artifact must reproduce the identical
// byte stream (deterministic encoding).
func TestRoundTripAcrossFamilies(t *testing.T) {
	if testing.Short() {
		t.Skip("compile round trips skipped in -short mode")
	}
	benches := []string{"Bro217", "Levenshtein", "RandomForest", "CoreRings"}
	for _, bench := range benches {
		for _, stride := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/stride%d", bench, stride), func(t *testing.T) {
				a, orig := buildArtifact(t, bench, stride)
				raw := saveBytes(t, a)

				got, err := Load(bytes.NewReader(raw))
				if err != nil {
					t.Fatalf("load: %v", err)
				}
				if got.Meta != a.Meta {
					t.Fatalf("meta diverges: %+v vs %+v", got.Meta, a.Meta)
				}
				if len(got.Stages) != len(a.Stages) {
					t.Fatalf("stage count diverges: %d vs %d", len(got.Stages), len(a.Stages))
				}
				for i := range got.Stages {
					if got.Stages[i] != a.Stages[i] {
						t.Fatalf("stage %d diverges: %+v vs %+v", i, got.Stages[i], a.Stages[i])
					}
				}

				input := workload.Input(orig, 8192, 13)
				want, _, err := sim.Run(a.NFA, input)
				if err != nil {
					t.Fatalf("compiled run: %v", err)
				}
				have, _, err := sim.Run(got.NFA, input)
				if err != nil {
					t.Fatalf("loaded run: %v", err)
				}
				if !sim.SameReports(want, have) {
					t.Fatalf("loaded automaton diverges: %d vs %d reports", len(have), len(want))
				}

				if !got.Placement.Valid() {
					t.Fatalf("loaded placement invalid: %d uncovered", got.Placement.TotalUncovered)
				}
				if len(got.Placement.G4s) != len(a.Placement.G4s) {
					t.Fatalf("placement groups diverge: %d vs %d",
						len(got.Placement.G4s), len(a.Placement.G4s))
				}

				resaved := saveBytes(t, got)
				if !bytes.Equal(raw, resaved) {
					t.Fatalf("save(load(save)) not byte-identical: %d vs %d bytes", len(resaved), len(raw))
				}
			})
		}
	}
}

func TestWriteFileLoadFileStat(t *testing.T) {
	a, _ := buildArtifact(t, "Bro217", 2)
	path := filepath.Join(t.TempDir(), "m.impala")
	if err := a.WriteFile(path); err != nil {
		t.Fatalf("write file: %v", err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatalf("load file: %v", err)
	}
	if got.Meta != a.Meta {
		t.Fatalf("meta diverges after file round trip")
	}

	info, err := StatFile(path)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if info.Version != Version {
		t.Fatalf("stat version %d, want %d", info.Version, Version)
	}
	fi, _ := os.Stat(path)
	if info.SizeBytes != fi.Size() {
		t.Fatalf("stat size %d, file size %d", info.SizeBytes, fi.Size())
	}
	if info.Meta != a.Meta {
		t.Fatalf("stat meta diverges: %+v vs %+v", info.Meta, a.Meta)
	}
	if len(info.Stages) != len(a.Stages) {
		t.Fatalf("stat stages %d, want %d", len(info.Stages), len(a.Stages))
	}
	for _, id := range []string{"META", "STAG", "AUTM", "PLAC"} {
		if info.Sections[id] <= 0 {
			t.Fatalf("stat section %s missing or empty: %v", id, info.Sections)
		}
	}
	// The loaded artifact's own header view is what Stat reads off the file.
	if !reflect.DeepEqual(got.Info(), info) {
		t.Fatalf("Load's Info %+v != Stat's %+v", got.Info(), info)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	// WriteFile goes through a temp file + rename: a failed save must not
	// clobber an existing good artifact.
	a, _ := buildArtifact(t, "Bro217", 1)
	path := filepath.Join(t.TempDir(), "m.impala")
	if err := a.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	before, _ := os.ReadFile(path)

	bad := &Artifact{Meta: a.Meta} // no NFA/placement: Save must fail
	if err := bad.WriteFile(path); err == nil {
		t.Fatal("saving an empty artifact succeeded")
	}
	after, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(before, after) {
		t.Fatalf("failed WriteFile corrupted the existing artifact (err %v)", err)
	}
	if tmp, _ := filepath.Glob(path + "*.tmp*"); len(tmp) != 0 {
		t.Fatalf("temp files left behind: %v", tmp)
	}
}

// corrupt returns raw with a deliberate mutation applied and the CRC
// re-stamped when asked, so tests can separate checksum failures from
// structural ones.
func restamp(raw []byte) []byte {
	out := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(out[12:], crc32.Checksum(out[16:], crc32.MakeTable(crc32.Castagnoli)))
	return out
}

// misstated is a reader whose Len is off by a fixed amount.
type misstated struct {
	*bytes.Reader
	by int
}

func (m misstated) Len() int { return max(0, m.Reader.Len()+m.by) }

// loadCase is one row of the container-level corruption matrix: a mutation
// of a saved artifact and the error class Load must answer with.
type loadCase struct {
	name string
	mut  func() []byte
	want error
}

// containerCases is the container-level corruption matrix over raw, shared
// by TestLoadErrorPaths and FuzzLoad's seed corpus.
func containerCases(t testing.TB, raw []byte) []loadCase {
	return []loadCase{
		{"empty", func() []byte { return nil }, ErrTruncated},
		{"short preamble", func() []byte { return raw[:10] }, ErrTruncated},
		{"bad magic", func() []byte {
			out := append([]byte(nil), raw...)
			out[0] = 'X'
			return out
		}, ErrBadMagic},
		{"future version", func() []byte {
			out := append([]byte(nil), raw...)
			binary.LittleEndian.PutUint16(out[6:], Version+1)
			return out
		}, ErrVersion},
		{"flipped body bit", func() []byte {
			out := append([]byte(nil), raw...)
			out[len(out)/2] ^= 0x40
			return out
		}, ErrChecksum},
		{"truncated body", func() []byte { return raw[:len(raw)-7] }, ErrChecksum},
		{"truncated section header", func() []byte {
			// Valid CRC over a body whose last section header is cut short.
			return restamp(raw[:16+20])
		}, ErrTruncated},
		{"unknown section", func() []byte {
			out := append([]byte(nil), raw...)
			copy(out[16:], "XXXX")
			return restamp(out)
		}, ErrCorrupt},
		{"missing section", func() []byte {
			// Body holding only the META section: structurally incomplete.
			metaLen := binary.LittleEndian.Uint64(raw[20:])
			return restamp(raw[:16+12+int(metaLen)])
		}, ErrCorrupt},
		// The encoding is canonical: reserved bits, flag values, padding and
		// section order have one accepted form.
		{"reserved flags set", func() []byte {
			out := append([]byte(nil), raw...)
			out[8] = 1
			return out
		}, ErrCorrupt},
		{"flag byte out of range", func() []byte {
			out := append([]byte(nil), raw...)
			out[16+12+2] = 2 // META's CAMode
			return restamp(out)
		}, ErrCorrupt},
		{"non-zero padding", func() []byte {
			out := append([]byte(nil), raw...)
			out[16+12+3] = 1 // the pad byte after it
			return restamp(out)
		}, ErrCorrupt},
		{"sections out of order", func() []byte {
			_, chunks := sections(t, raw)
			chunks[1], chunks[2] = chunks[2], chunks[1]
			return rebuild(raw, chunks)
		}, ErrCorrupt},
		{"intact", func() []byte { return raw }, nil},
	}
}

func TestLoadErrorPaths(t *testing.T) {
	a, _ := buildArtifact(t, "Bro217", 1)
	raw := saveBytes(t, a)
	for _, tc := range containerCases(t, raw) {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(bytes.NewReader(tc.mut()))
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
			// The verdict must not depend on how the container is read: in
			// one allocation when the reader says what remains (above), by
			// ReadAll when it cannot, and a reader whose Len overstates
			// what it holds is read for what it holds.
			for how, r := range map[string]io.Reader{
				"opaque":     struct{ io.Reader }{bytes.NewReader(tc.mut())},
				"overstated": misstated{bytes.NewReader(tc.mut()), +100},
			} {
				if _, err := Load(r); !errors.Is(err, tc.want) {
					t.Fatalf("%s reader: got %v, want %v", how, err, tc.want)
				}
			}
			if tc.want == nil {
				// Understating cuts the body short: the checksum catches it.
				if _, err := Load(misstated{bytes.NewReader(raw), -9}); !errors.Is(err, ErrChecksum) {
					t.Fatalf("understated reader: got %v, want %v", err, ErrChecksum)
				}
				return
			}
			// Stat must reject everything Load rejects at the container
			// layer (it CRC-checks the whole file).
			if _, err := Stat(bytes.NewReader(tc.mut())); err == nil {
				t.Fatalf("stat accepted a %s artifact", tc.name)
			}
		})
	}
}

func TestLoadRejectsDuplicateSection(t *testing.T) {
	a, _ := buildArtifact(t, "Bro217", 1)
	raw := saveBytes(t, a)
	metaLen := int(binary.LittleEndian.Uint64(raw[20:]))
	sec := raw[16 : 16+12+metaLen]
	dup := append(append([]byte(nil), raw...), sec...)
	if _, err := Load(bytes.NewReader(restamp(dup))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("duplicate META accepted: %v", err)
	}
}

func TestLoadRejectsTrailingGarbageInSection(t *testing.T) {
	// A section payload longer than its content must be flagged: a layout
	// consumes exactly its encoding and anything left is corruption.
	a, _ := buildArtifact(t, "Bro217", 1)
	raw := saveBytes(t, a)
	ids, chunks := sections(t, raw)
	for i, id := range ids {
		mut := append([][]byte(nil), chunks...)
		sec := append(append([]byte(nil), chunks[i]...), 0xEE)
		binary.LittleEndian.PutUint64(sec[4:], uint64(len(sec)-12))
		mut[i] = sec
		if _, err := Load(bytes.NewReader(rebuild(raw, mut))); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), id) {
			t.Fatalf("trailing garbage in %s: %v", id, err)
		}
	}
}

// encodeSection is one row's payload for a: its layout walked to encode,
// without Save's checks of the whole artifact.
func encodeSection(id string, a *Artifact) []byte {
	c := &codec{}
	sectionTable[slices.IndexFunc(sectionTable, func(s section) bool { return s.id == id })].layout(c, a)
	return c.b
}

func TestLoadRejectsMetaMismatch(t *testing.T) {
	// META claims a different shape than AUTM delivers: validate() must
	// refuse rather than serve an automaton with a lying header.
	a, _ := buildArtifact(t, "Bro217", 1)
	lying := *a
	lying.Meta.States++
	var buf bytes.Buffer
	// Bypass New's recount by saving the mutated struct directly.
	if err := lying.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("meta/body mismatch accepted: %v", err)
	}
}

// TestPlacementCorruptionPaths pins that a state is placed once across the
// whole placement: a state in two slots — of one group, or of two groups
// while another state is placed nowhere, which keeps the slot count equal to
// the state count — is refused as corrupt, inside FuzzLoad's budget.
func TestPlacementCorruptionPaths(t *testing.T) {
	a, _ := buildArtifact(t, "Bro217", 1)
	raw := saveBytes(t, a)
	// occupied returns a group's first two occupied slots.
	occupied := func(g *place.G4Placement) (int, int) {
		var s []int
		for slot, id := range g.Slots {
			if id >= 0 {
				s = append(s, slot)
			}
		}
		if len(s) < 2 {
			t.Fatalf("fixture changed: group holds %d states", len(s))
		}
		return s[0], s[1]
	}
	for _, tc := range []struct {
		name string
		edit func(pl *place.Placement) string // returns the error text
	}{
		{"PLAC state twice in one group", func(pl *place.Placement) string {
			g := pl.G4s[0]
			s1, s2 := occupied(g)
			g.Slots[s2] = g.Slots[s1]
			return fmt.Sprintf("group 0 state %d placed twice", g.Slots[s1])
		}},
		{"PLAC state in two groups, another in none", func(pl *place.Placement) string {
			g := pl.G4s[0]
			s1, s2 := occupied(g)
			other := &place.G4Placement{Slots: make([]automata.StateID, interconnect.G4Size)}
			for i := range other.Slots {
				other.Slots[i] = -1
			}
			other.Slots[0], g.Slots[s2] = g.Slots[s1], -1
			pl.G4s = append(pl.G4s, other)
			return fmt.Sprintf("group %d state %d placed twice", len(pl.G4s)-1, g.Slots[s1])
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := Load(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			want := tc.edit(b.Placement)
			b.Meta.Groups = len(b.Placement.G4s)
			data := saveBytes(t, b)
			_, got, err := loadAlloc(data)
			if !errors.Is(err, ErrCorrupt) || !strings.HasSuffix(err.Error(), want) {
				t.Fatalf("got %v, want %v ending %q", err, ErrCorrupt, want)
			}
			if budget := uint64(loadAllocFactor*len(data) + loadAllocSlack + loadAllocGroup*placementGroups(data)); got > budget {
				t.Fatalf("allocated %d bytes refusing %d, budget %d", got, len(data), budget)
			}
		})
	}
}

func TestSaveRejectsInvalidArtifact(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Artifact{}).Save(&buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("empty artifact save: %v", err)
	}
}

func TestStageTimesSurvive(t *testing.T) {
	a, _ := buildArtifact(t, "Bro217", 1)
	a.Stages = []Stage{{Name: "v-tess", States: 9, Transitions: 12,
		Duration: 1500 * time.Microsecond, CPUTime: 4 * time.Millisecond}}
	got, err := Load(bytes.NewReader(saveBytes(t, a)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Stages) != 1 || got.Stages[0] != a.Stages[0] {
		t.Fatalf("stage round trip diverges: %+v", got.Stages)
	}
}
