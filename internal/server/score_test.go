package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"impala"
	"impala/internal/workload"
)

// compileScoredMachine seals a scored Levenshtein machine (threshold 5:
// perfect and single-edit reads clear it, two-edit reads do not).
func compileScoredMachine(t testing.TB) *impala.Machine {
	t.Helper()
	n, w, err := workload.ScoredLevenshtein(
		[][]byte{[]byte("ACGTACGT")}, 2, workload.DefaultAlignCosts, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := impala.DefaultConfig()
	cfg.Score = w
	m, err := impala.CompileAutomaton(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestScoredTenantMatch: a tenant loaded from a SCOR artifact serves
// threshold-filtered rows with a score field, identical to the in-process
// MatchScored result; binary tenants keep score-free rows.
func TestScoredTenantMatch(t *testing.T) {
	m := compileScoredMachine(t)
	path := writeArtifact(t, m, t.TempDir(), "align.impala")
	s, ts := newTestServer(t, Config{})
	if _, err := s.Tenants().LoadFile("align", path); err != nil {
		t.Fatal(err)
	}

	input := []byte("GGGGACGTACGTCCCCACGAACGTGGGG") // one exact read, one 1-sub read
	want, err := m.MatchScored(input)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("no scored matches — test input is inert")
	}

	code, mr := postMatch(t, ts, "align", input)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(mr.Matches) != len(want) {
		t.Fatalf("got %d rows, want %d: %v", len(mr.Matches), len(want), mr.Matches)
	}
	byKey := make(map[[2]int]float64, len(want))
	for _, sm := range want {
		byKey[[2]int{sm.End, sm.Pattern}] = sm.Score
	}
	for _, row := range mr.Matches {
		if row.Score == nil {
			t.Fatalf("scored tenant row missing score: %+v", row)
		}
		if wantSc, ok := byKey[[2]int{row.End, row.Pattern}]; !ok || *row.Score != wantSc {
			t.Fatalf("row %+v: want score %g", row, wantSc)
		}
	}

	// Binary tenants are unchanged: no score key in the response body.
	bin := compileMachine(t, []string{"ACGT"})
	s.Tenants().Install("bin", bin)
	resp, err := http.Post(ts.URL+"/v1/bin/match", "application/octet-stream", bytes.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw bytes.Buffer
	raw.ReadFrom(resp.Body)
	if strings.Contains(raw.String(), "score") {
		t.Fatalf("binary tenant response mentions score: %s", raw.String())
	}
}

// TestScoredTenantStream: the /stream NDJSON lines of a scored tenant carry
// scores and agree with the one-shot scored result.
func TestScoredTenantStream(t *testing.T) {
	m := compileScoredMachine(t)
	s, ts := newTestServer(t, Config{})
	s.Tenants().Install("align", m)

	input := []byte("GGGGACGTACGTCCCCACGAACGTGGGG")
	want, err := m.MatchScored(input)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/align/stream", "application/octet-stream", bytes.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	byKey := make(map[[2]int]float64, len(want))
	for _, sm := range want {
		byKey[[2]int{sm.End, sm.Pattern}] = sm.Score
	}
	rows := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.Contains(line, `"done"`) {
			continue
		}
		var row matchJSON
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if row.Score == nil {
			t.Fatalf("stream row missing score: %q", line)
		}
		if wantSc, ok := byKey[[2]int{row.End, row.Pattern}]; !ok || *row.Score != wantSc {
			t.Fatalf("stream row %q: want score %g", line, wantSc)
		}
		rows++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if rows != len(want) {
		t.Fatalf("stream emitted %d rows, one-shot %d", rows, len(want))
	}

	// The tenant listing surfaces the threshold.
	tl, err := http.Get(ts.URL + "/v1/tenants")
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Body.Close()
	var listing []tenantJSON
	if err := json.NewDecoder(tl.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing) != 1 || listing[0].ScoreThreshold == nil || *listing[0].ScoreThreshold != 5 {
		t.Fatalf("tenant listing missing score threshold: %+v", listing)
	}
}
