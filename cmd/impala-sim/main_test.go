package main

import (
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"impala"
	"impala/internal/artifact"
	"impala/internal/automata"
	"impala/internal/interconnect"
	"impala/internal/place"
	"impala/internal/sim"
	"impala/internal/workload"
)

// seal saves the machine's artifact into the test's directory and returns its
// path.
func seal(t *testing.T, m *impala.Machine, name string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name+".impala")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SaveArtifact(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// -v names a sealed shard plan the way it names a tier plan and a score
// table, and says nothing of one on an artifact that carries none.
func TestArtifactInfoShardPlan(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
		want   bool
	}{
		{"sharded", 2, true},
		{"plain", 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := impala.DefaultConfig()
			cfg.Shards = tc.shards
			m, err := impala.CompileRegex([]string{"GET /", "needle", `\d\d`}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			if err := printArtifactInfo(&out, seal(t, m, tc.name)); err != nil {
				t.Fatal(err)
			}
			if got := strings.Contains(out.String(), "shard plan"); got != tc.want {
				t.Fatalf("shard plan line present = %v, want %v:\n%s", got, tc.want, out.String())
			}
			if tc.want && !strings.Contains(out.String(), "\nshard plan      : 2 shards\n") {
				t.Fatalf("shard plan line malformed:\n%s", out.String())
			}
		})
	}
}

// A scored artifact runs on the same core path and print loop as every other
// form: each match line carries its score, whole and streamed in 5-byte
// chunks, and the scored form refuses -tier, -trace and -engine by name.
func TestScoredArtifactRun(t *testing.T) {
	n, w, err := workload.ScoredLevenshtein([][]byte{[]byte("ACGTTGCAACGT")}, 2, workload.Costs{Match: 1, Mismatch: -1, Gap: -2}, 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := impala.DefaultConfig()
	cfg.Score = w
	m, err := impala.CompileAutomaton(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := loadAutomaton(seal(t, m, "align"), "", "", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	// The exact read, planted after an 8-byte spacer, ends at byte 20.
	input := []byte("TTTTTTTTACGTTGCAACGTTTTTTTTT")
	for _, chunk := range []int{0, 5} {
		core, err := pickCore(io.Discard, a, false, false, "compiled")
		if err != nil {
			t.Fatal(err)
		}
		reports, stats := sim.RunBatch(core, input, chunk, nil)
		var out strings.Builder
		printRun(&out, a, len(input), chunk, false, reports, stats)
		if !strings.Contains(out.String(), "match: pattern 1 at byte 20 score 12\n") {
			t.Errorf("-chunk %d: no scored match line for the exact read:\n%s", chunk, out.String())
		}
	}
	for _, flags := range []struct {
		tier, trace bool
		engine      string
	}{{true, false, "compiled"}, {false, true, "compiled"}, {false, false, "scalar"}} {
		_, err := pickCore(io.Discard, a, flags.tier, flags.trace, flags.engine)
		if err == nil || !strings.Contains(err.Error(), "scored artifacts run on the scored engine only") {
			t.Errorf("-tier %t -trace %t -engine %s on a scored artifact: error %v", flags.tier, flags.trace, flags.engine, err)
		}
	}
}

// -load runs only what LoadMachine would build: an artifact whose placement
// does not build — here the edge of "ab" split across two groups — decodes,
// and is refused with the facade's error.
func TestLoadRefusesUnbuildablePlacement(t *testing.T) {
	n := automata.New(8, 1)
	n.AddLiteral("ab", automata.StartAllInput, 1)
	pl, err := place.Place(n, place.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range pl.G4s {
		if i := slices.Index(g.Slots, 1); i >= 0 {
			g.Slots[i] = -1
		}
	}
	g := &place.G4Placement{Slots: make([]automata.StateID, interconnect.G4Size)}
	for i := range g.Slots {
		g.Slots[i] = -1
	}
	g.Slots[0] = 1
	pl.G4s = append(pl.G4s, g)
	path := filepath.Join(t.TempDir(), "split.impala")
	if err := artifact.New(n, pl, n, artifact.Meta{}, nil).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := artifact.LoadFile(path); err != nil {
		t.Fatalf("artifact.Load refuses it: %v", err)
	}
	_, err = loadAutomaton(path, "", "", 0, false)
	if want := "impala: placement does not build: arch: edge 0->1 crosses switch groups"; err == nil || err.Error() != want {
		t.Fatalf("-load error %v, want %q", err, want)
	}
}
