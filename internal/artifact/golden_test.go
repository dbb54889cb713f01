package artifact

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"impala/internal/dfa"
)

// goldenFiles returns the artifacts of one format version in
// testdata/v<version> and their names. The v7 files were sealed by the build
// that introduced that version, with stage timings zeroed and a fixed
// CreatedUnix, and together carry every section: a plain artifact, a tiered
// one (TIER, DFAT), four tiered shards on a topology (SHRD with a DFA-less
// shard tier, TOPO), a scored one with tiered shards (SCOR beside SHRD and
// TOPO) and a CAM-backend one (BKND, META's backend tag). The v8 files are
// the same five with the version rewritten and every DFAT's pad byte made its
// step — the scored one's shard DFAs step bytes, their sub-symbol tables
// composed into byte tables and their plans' state and table-byte counts
// moved with them, the others' step 1 — and a tiered one whose DFA steps
// bytes (bytes.impala).
func goldenFiles(t testing.TB, version int) (names []string, files [][]byte) {
	t.Helper()
	paths, err := filepath.Glob(fmt.Sprintf("testdata/v%d/*.impala", version))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no v%d goldens: %v", version, err)
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		names, files = append(names, filepath.Base(p)), append(files, raw)
	}
	return names, files
}

// TestV7Goldens: the v7 goldens, sealed before a DFA could step bytes, are
// refused by their version, by Load and by Stat, before any section is
// looked at.
func TestV7Goldens(t *testing.T) {
	names, files := goldenFiles(t, 7)
	for i, raw := range files {
		t.Run(names[i], func(t *testing.T) {
			if _, err := Load(bytes.NewReader(raw)); !errors.Is(err, ErrVersion) {
				t.Fatalf("load: %v, want ErrVersion", err)
			}
			if _, err := Stat(bytes.NewReader(raw)); !errors.Is(err, ErrVersion) {
				t.Fatalf("stat: %v, want ErrVersion", err)
			}
		})
	}
}

// TestV8Goldens pins the format's bytes: each file sealed by an earlier
// build loads and saves back byte for byte. Round trips within one build
// cannot see a layout change that Save and Load make together; this can.
func TestV8Goldens(t *testing.T) {
	seen, stepped := map[string]bool{}, false
	names, files := goldenFiles(t, 8)
	for i, raw := range files {
		t.Run(names[i], func(t *testing.T) {
			a, err := Load(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			for id := range a.sections {
				seen[id] = true
			}
			tiers := []*dfa.Sealed{a.Tier}
			if a.Shards != nil {
				tiers = append(tiers, a.Shards.Tiers...)
			}
			for _, st := range tiers {
				stepped = stepped || st != nil && st.DFA != nil && st.DFA.Step() > 1
			}
			if out := saveBytes(t, a); !bytes.Equal(out, raw) {
				t.Fatalf("save(load(golden)) differs: %d bytes in, %d out", len(raw), len(out))
			}
		})
	}
	for _, s := range sectionTable {
		if !seen[s.id] {
			t.Errorf("no golden carries section %s", s.id)
		}
	}
	if !stepped {
		t.Error("no golden carries a DFA that steps bytes")
	}
}
