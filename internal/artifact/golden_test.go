package artifact

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// goldenFiles returns the v7 artifacts in testdata/v7 and their names. They
// were sealed by the build that introduced them, with stage timings zeroed
// and a fixed CreatedUnix, and together carry every section: a plain
// artifact, a tiered one (TIER, DFAT), four tiered shards on a topology
// (SHRD with a DFA-less shard tier, TOPO), a scored one with tiered shards
// (SCOR beside SHRD and TOPO) and a CAM-backend one (BKND, META's backend
// tag).
func goldenFiles(t testing.TB) (names []string, files [][]byte) {
	t.Helper()
	paths, err := filepath.Glob("testdata/v7/*.impala")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no v7 goldens: %v", err)
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

// TestV7Goldens pins the format's bytes: each file sealed by an earlier
// build loads and saves back byte for byte. Round trips within one build
// cannot see a layout change that Save and Load make together; this can.
func TestV7Goldens(t *testing.T) {
	seen := map[string]bool{}
	names, files := goldenFiles(t)
	for i, raw := range files {
		t.Run(names[i], func(t *testing.T) {
			a, err := Load(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			for id := range a.sections {
				seen[id] = true
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
}
