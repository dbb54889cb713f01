package impala

import (
	"bytes"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"sort"
	"testing"

	"impala/internal/automata"
	"impala/internal/sim"
	"impala/internal/workload"
)

// scoredFixture compiles a scored Levenshtein machine at the default design
// point and returns it with an input carrying exact and mutated reads.
func scoredFixture(t *testing.T, cfg Config) (*Machine, []byte) {
	t.Helper()
	pats := [][]byte{[]byte("ACGTACGT"), []byte("TTGACCAT")}
	n, w, err := workload.ScoredLevenshtein(pats, 2, workload.DefaultAlignCosts, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Score = w
	m, err := CompileAutomaton(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	input := make([]byte, 0, 256)
	for len(input) < 200 {
		read := append([]byte(nil), pats[r.Intn(len(pats))]...)
		if r.Intn(2) == 0 {
			read[1+r.Intn(len(read)-2)] = "ACGT"[r.Intn(4)]
		}
		input = append(input, read...)
		for j := r.Intn(6); j > 0; j-- {
			input = append(input, "ACGT"[r.Intn(4)])
		}
	}
	return m, input
}

func sortScored(ms []ScoredMatch) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].End != ms[j].End {
			return ms[i].End < ms[j].End
		}
		return ms[i].Pattern < ms[j].Pattern
	})
}

// TestMatchScored: the scored one-shot reports only threshold-clearing
// hits, every hit is also a binary match, and the summary accessors
// describe the sealed table.
func TestMatchScored(t *testing.T) {
	m, input := scoredFixture(t, DefaultConfig())
	if m.scored.Kernel() != m.simc {
		t.Fatal("scored machine holds two binary compiled forms: the scored form's kernel is not the machine's simc")
	}
	scored, err := m.MatchScored(input)
	if err != nil {
		t.Fatal(err)
	}
	if len(scored) == 0 {
		t.Fatal("no scored matches — fixture input is inert")
	}
	binary := make(map[Match]bool)
	for _, mt := range m.Match(input) {
		binary[mt] = true
	}
	if len(scored) >= len(binary) {
		t.Fatalf("threshold suppressed nothing: %d scored vs %d binary", len(scored), len(binary))
	}
	info := m.ScoreInfo()
	if info == nil || info.Threshold != 5 || info.Edges == 0 {
		t.Fatalf("score info %+v", info)
	}
	seen := make(map[Match]bool)
	for _, s := range scored {
		if s.Score < info.Threshold {
			t.Fatalf("match %+v below threshold", s)
		}
		if !binary[s.Match] {
			t.Fatalf("scored match %+v not in binary output", s)
		}
		if seen[s.Match] {
			t.Fatalf("duplicate scored match %+v", s)
		}
		seen[s.Match] = true
	}
}

// TestScoredArtifactRoundTrip: the weight table rides the artifact, and the
// loaded machine compiles its automaton once. (That it scores as the saved
// machine does is TestSpine's "artifact, scored".)
func TestScoredArtifactRoundTrip(t *testing.T) {
	m, _ := scoredFixture(t, DefaultConfig())
	var buf bytes.Buffer
	if err := m.SaveArtifact(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadMachine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.ScoreInfo() == nil {
		t.Fatal("weight table lost in artifact round trip")
	}
	if loaded.scored.Kernel() != loaded.simc {
		t.Fatal("loaded scored machine compiled its automaton twice")
	}
}

// TestScoredComposesWithPlans: Score with Tier or Shards compiles into a
// machine that keeps every plan through an artifact round trip and scores as
// the untiered, unsharded one does; scored paths on an unscored machine
// error.
func TestScoredComposesWithPlans(t *testing.T) {
	m, input := scoredFixture(t, DefaultConfig())
	want, err := m.MatchScored(input)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{{StrideDims: 4, Tier: true}, {StrideDims: 4, Shards: 3}, {StrideDims: 4, Tier: true, Shards: 3}} {
		m, _ := scoredFixture(t, cfg)
		var buf bytes.Buffer
		if err := m.SaveArtifact(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadMachine(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []*Machine{m, loaded} {
			if (m.TierInfo() != nil) != (cfg.Shards == 0) || (m.ShardInfo() != nil) != (cfg.Shards == 3) || m.ScoreInfo() == nil {
				t.Fatalf("%+v: tier plan %+v, shard plan %+v, score table %+v", cfg, m.TierInfo(), m.ShardInfo(), m.ScoreInfo())
			}
			if got, err := m.MatchScored(input); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v: scores %v (%v), want %v", cfg, got, err, want)
			}
		}
	}
	plain, err := CompileRegex([]string{"abc"}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.MatchScored([]byte("abc")); err == nil {
		t.Fatal("MatchScored on unscored machine succeeded")
	}
	if _, err := plain.NewScoredStream(nil); err == nil {
		t.Fatal("NewScoredStream on unscored machine succeeded")
	}
	if plain.ScoreInfo() != nil {
		t.Fatal("ScoreInfo non-nil on unscored machine")
	}
}

// TestScoredStreamWriteResetStats: the io.Writer path matches Feed, and
// Stats accounts the fed bytes. (A Reset mid-stream is in TestSpine's sweep.)
func TestScoredStreamWriteResetStats(t *testing.T) {
	m, input := scoredFixture(t, DefaultConfig())
	want, err := m.MatchScored(input)
	if err != nil {
		t.Fatal(err)
	}
	sortScored(want)

	var got []ScoredMatch
	st, err := m.NewScoredStream(func(sm ScoredMatch) { got = append(got, sm) })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(input); i += 9 {
		end := i + 9
		if end > len(input) {
			end = len(input)
		}
		nw, err := st.Write(input[i:end])
		if err != nil || nw != end-i {
			t.Fatalf("Write = (%d, %v), want (%d, nil)", nw, err, end-i)
		}
	}
	st.Flush()
	sortScored(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Write-fed stream diverges from one-shot:\n got: %v\nwant: %v", got, want)
	}
	// Engine-level reports count every threshold-cleared report; the
	// emitted matches are those max-merged per (end, pattern).
	if st.Stats().Cycles == 0 || st.Stats().Reports < len(got) {
		t.Fatalf("Stats() = %+v, want >= %d reports over >0 cycles", st.Stats(), len(got))
	}
}

// TestScoredMachineFromFile: the file-path loading entry points carry the
// weight table too.
func TestScoredMachineFromFile(t *testing.T) {
	m, input := scoredFixture(t, DefaultConfig())
	path := t.TempDir() + "/align.impala"
	var buf bytes.Buffer
	if err := m.SaveArtifact(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadMachineFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.ScoreInfo() == nil {
		t.Fatal("weight table lost through LoadMachineFile")
	}
	want, err := m.MatchScored(input)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.MatchScored(input)
	if err != nil {
		t.Fatal(err)
	}
	sortScored(want)
	sortScored(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("file-loaded scored matches diverge")
	}
}

// The run fold of toMatches/toScoredMatches against the map it replaced:
// same rows, same first-report order, best score kept — on sorted reports
// whose bytes hold several bit positions, several states per pattern and
// several patterns.
func TestMatchFoldEqualsMapFold(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		reports := make([]sim.Report, r.Intn(60))
		for i := range reports {
			reports[i] = sim.Report{BitPos: 4 * r.Intn(24), Code: r.Intn(4), State: automata.StateID(r.Intn(6)), Score: float64(r.Intn(9))}
		}
		sim.SortReports(reports)
		idx := map[Match]int{}
		var want []ScoredMatch
		for _, rep := range reports {
			mt := Match{End: rep.BitPos / 8, Pattern: rep.Code}
			if j, ok := idx[mt]; ok {
				want[j].Score = max(want[j].Score, rep.Score)
				continue
			}
			idx[mt] = len(want)
			want = append(want, ScoredMatch{Match: mt, Score: rep.Score})
		}
		got := toScoredMatches(reports)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: scored fold\n got %v\nwant %v\nof %v", trial, got, want, reports)
		}
		rows := toMatches(reports)
		for i := range want {
			if i >= len(rows) || rows[i] != want[i].Match {
				t.Fatalf("trial %d: fold\n got %v\nwant the matches of %v", trial, rows, want)
			}
		}
		if len(rows) != len(want) {
			t.Fatalf("trial %d: fold has %d rows, want %d", trial, len(rows), len(want))
		}
	}
}
