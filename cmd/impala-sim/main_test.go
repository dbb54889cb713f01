package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"impala"
)

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
			path := filepath.Join(t.TempDir(), tc.name+".impala")
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
			var out strings.Builder
			if err := printArtifactInfo(&out, path); err != nil {
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
