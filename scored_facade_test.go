package impala

import (
	"bytes"
	"cmp"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"sync"
	"testing"

	"impala/internal/artifact"
	"impala/internal/automata"
	"impala/internal/core"
	"impala/internal/place"
	"impala/internal/score"
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

func sortMatches(ms []Match) {
	slices.SortFunc(ms, func(a, b Match) int { return cmp.Or(cmp.Compare(a.End, b.End), cmp.Compare(a.Pattern, b.Pattern)) })
}

// key is a match without its score.
func key(mt Match) [2]int { return [2]int{mt.End, mt.Pattern} }

// TestMatchScored: a scored machine's Match reports only threshold-clearing
// hits, every hit is also one of the binary Simulate's, the deprecated
// MatchScored is Match, and the summary accessors describe the sealed table.
func TestMatchScored(t *testing.T) {
	m, input := scoredFixture(t, DefaultConfig())
	if _, ok := m.serving.(*score.Compiled); !ok {
		t.Fatalf("scored machine serves %T, not the scored form", m.serving)
	}
	scored := m.Match(input)
	if len(scored) == 0 {
		t.Fatal("no scored matches — fixture input is inert")
	}
	if old, err := m.MatchScored(input); err != nil || !reflect.DeepEqual(old, scored) {
		t.Fatalf("MatchScored = %v (%v), Match %v", old, err, scored)
	}
	structural, err := m.Simulate(input)
	if err != nil {
		t.Fatal(err)
	}
	binary := make(map[[2]int]bool)
	for _, mt := range structural {
		if mt.Score != 0 {
			t.Fatalf("Simulate scores %+v", mt)
		}
		binary[key(mt)] = true
	}
	if len(scored) >= len(binary) {
		t.Fatalf("threshold suppressed nothing: %d scored vs %d binary", len(scored), len(binary))
	}
	info := m.ScoreInfo()
	if info == nil || info.Threshold != 5 || info.Edges == 0 {
		t.Fatalf("score info %+v", info)
	}
	seen := make(map[[2]int]bool)
	for _, s := range scored {
		if s.Score < info.Threshold {
			t.Fatalf("match %+v below threshold", s)
		}
		if !binary[key(s)] {
			t.Fatalf("scored match %+v not in binary output", s)
		}
		if seen[key(s)] {
			t.Fatalf("duplicate scored match %+v", s)
		}
		seen[key(s)] = true
	}
}

// TestScoredArtifactRoundTrip: the weight table rides the artifact, and the
// loaded machine serves the scored form. (That it scores as the saved
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
	if _, ok := loaded.serving.(*score.Compiled); !ok {
		t.Fatalf("loaded scored machine serves %T, not the scored form", loaded.serving)
	}
}

// TestScoredComposesWithPlans: Score with Tier or Shards compiles into a
// machine that keeps every plan through an artifact round trip and scores as
// the untiered, unsharded one does; MatchScored on an unscored machine
// errors.
func TestScoredComposesWithPlans(t *testing.T) {
	m, input := scoredFixture(t, DefaultConfig())
	want := m.Match(input)
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
			if a := m.Artifact(); (a.Tier != nil) != (cfg.Shards == 0) || (a.Shards != nil) != (cfg.Shards == 3) || m.ScoreInfo() == nil {
				t.Fatalf("%+v: tier plan %t, shard plan %t, score table %+v", cfg, a.Tier != nil, a.Shards != nil, m.ScoreInfo())
			}
			if got := m.Match(input); !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v: scores %v, want %v", cfg, got, want)
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
	if plain.ScoreInfo() != nil {
		t.Fatal("ScoreInfo non-nil on unscored machine")
	}
}

// TestScoredStreamWriteResetStats: the io.Writer path matches Feed, and
// Stats accounts the fed bytes. (A Reset mid-stream is in TestSpine's sweep.)
func TestScoredStreamWriteResetStats(t *testing.T) {
	m, input := scoredFixture(t, DefaultConfig())
	want := m.Match(input)
	var got []Match
	st := m.NewStream(func(mt Match) { got = append(got, mt) })
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
	sortMatches(got)
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
	if !reflect.DeepEqual(loaded.Match(input), m.Match(input)) {
		t.Fatal("file-loaded scored matches diverge")
	}
}

// The run fold of appendMatches against the map it replaced:
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
		idx := map[[2]int]int{}
		var want []Match
		for _, rep := range reports {
			mt := Match{End: rep.BitPos / 8, Pattern: rep.Code, Score: rep.Score}
			if j, ok := idx[key(mt)]; ok {
				want[j].Score = max(want[j].Score, rep.Score)
				continue
			}
			idx[key(mt)] = len(want)
			want = append(want, mt)
		}
		if got := appendMatches(nil, reports); !slices.Equal(got, want) {
			t.Fatalf("trial %d: fold\n got %v\nwant %v\nof %v", trial, got, want, reports)
		}
	}
}

// Every machine's AppendMatch runs into report buffers from one pool: a
// binary and a scored machine matched from many goroutines at once, each
// appending into the slice it used last, match what each matches alone.
func TestConcurrentAppendMatch(t *testing.T) {
	scored, reads := scoredFixture(t, DefaultConfig())
	binary, err := CompileRegex([]string{"ACGT", "GATTACA"}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	machines := []*Machine{scored, binary}
	wants := [][]Match{scored.Match(reads), binary.Match(reads)}
	if len(wants[0]) == 0 || len(wants[1]) == 0 {
		t.Fatalf("the reads match %d and %d times, want some of each", len(wants[0]), len(wants[1]))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rows []Match
			for k := 0; k < 50; k++ {
				i := (g + k) % 2
				if rows = machines[i].AppendMatch(rows[:0], reads); !slices.Equal(rows, wants[i]) {
					t.Errorf("goroutine %d, call %d: machine %d matches %d rows, alone %d", g, k, i, len(rows), len(wants[i]))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzAppendMatches: appendMatches over sorted reports at byte ends (where
// every automaton compiled from 8-bit rules reports) appends what a map
// makes of them — one row per (End, Pattern), the best score, in (End,
// Pattern) order — and leaves the prefix it appends to as it was, even where
// the prefix's last row is the first new row's (End, Pattern). The first byte
// is the prefix's length; every 3 bytes after it are a row of the prefix, then
// a report: an end, a pattern and state, a score.
func FuzzAppendMatches(f *testing.F) {
	f.Add([]byte{1, 3, 1, 7, 3, 1, 2, 3, 5, 9, 3, 1, 4})
	f.Add([]byte{0, 2, 0, 1, 2, 4, 1, 2, 0, 200, 1, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n, recs := int(data[0]%8), data[1:]
		var prefix []Match
		var reports []sim.Report
		for ; len(recs) >= 3; recs = recs[3:] {
			end, code, score := int(recs[0]%32), int(recs[1]%4), float64(int8(recs[2]))
			if len(prefix) < n {
				prefix = append(prefix, Match{End: end, Pattern: code, Score: score})
				continue
			}
			reports = append(reports, sim.Report{BitPos: 8 * end, Code: code, State: automata.StateID(recs[1] / 4 % 4), Score: score})
		}
		sim.SortReports(reports)
		best := map[[2]int]float64{}
		for _, r := range reports {
			k := [2]int{r.BitPos / 8, r.Code}
			if s, ok := best[k]; !ok || r.Score > s {
				best[k] = r.Score
			}
		}
		var want []Match
		for k, s := range best {
			want = append(want, Match{End: k[0], Pattern: k[1], Score: s})
		}
		sortMatches(want)
		for _, room := range []int{0, len(reports)} {
			dst := append(make([]Match, 0, len(prefix)+room), prefix...)
			got := appendMatches(dst, reports)
			if !slices.Equal(got[:len(prefix)], prefix) {
				t.Fatalf("room %d: the prefix became %v, want %v", room, got[:len(prefix)], prefix)
			}
			if !slices.Equal(got[len(prefix):], want) {
				t.Fatalf("room %d: fold\n got %v\nwant %v\nof %v", room, got[len(prefix):], want, reports)
			}
		}
	})
}

// A threshold no path reaches prunes every state at compile: a plain, a
// tiered and a 2-shard scored machine compile to no states, save and load
// back byte-identical, and match nothing through Match, Run or NewStream.
func TestScoredAllStatesPruned(t *testing.T) {
	pats := [][]byte{[]byte("ACGTACGT"), []byte("TTGACCAT")}
	n, w, err := workload.ScoredLevenshtein(pats, 2, workload.DefaultAlignCosts, 1000)
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("xxACGTACGTyyTTGACCATzzACGAACGT")
	for _, cfg := range []Config{DefaultConfig(), {StrideDims: 4, Tier: true}, {StrideDims: 4, Shards: 2}} {
		cfg.Score = w
		m, err := CompileAutomaton(n, cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		a := m.Artifact()
		if a.NFA.NumStates() != 0 || (a.Tier != nil) != cfg.Tier || (a.Shards != nil) != (cfg.Shards == 2) {
			t.Fatalf("%+v: %d states compiled, tier plan %t, shard plan %t: want 0 states and the plans asked for",
				cfg, a.NFA.NumStates(), a.Tier != nil, a.Shards != nil)
		}
		var saved, again bytes.Buffer
		if err := m.SaveArtifact(&saved); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		loaded, err := LoadMachine(bytes.NewReader(saved.Bytes()))
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if err := loaded.SaveArtifact(&again); err != nil || !bytes.Equal(again.Bytes(), saved.Bytes()) {
			t.Fatalf("%+v: the loaded artifact saves back %d bytes (%v), want the %d it was loaded from", cfg, again.Len(), err, saved.Len())
		}
		for _, m := range []*Machine{m, loaded} {
			var streamed []Match
			st := m.NewStream(func(mt Match) { streamed = append(streamed, mt) })
			st.Feed(input)
			st.Flush()
			if got, run := m.Match(input), m.Run(input); len(got)+len(run)+len(streamed) != 0 {
				t.Fatalf("%+v: Match %v, Run %v, NewStream %v: want nothing", cfg, got, run, streamed)
			}
		}
	}
}

// An artifact sealed before the compiler pruned threshold-dead states holds
// them all; it still serves, exactly: on the dna_scored_match mesh its Match
// is the pruned machine's.
func TestUnprunedScoredArtifactServes(t *testing.T) {
	const alphabet = "ACGT"
	r := rand.New(rand.NewSource(1))
	pats := workload.RandomPatterns(r, 8, 12, alphabet)
	costs := workload.DefaultAlignCosts
	n, w, err := workload.ScoredLevenshtein(pats, 2, costs, 11*costs.Match+costs.Gap)
	if err != nil {
		t.Fatal(err)
	}
	input := make([]byte, 16<<10)
	for i := range input {
		input[i] = alphabet[r.Intn(len(alphabet))]
	}
	for off := 8; off+12 <= len(input); off += 18 + r.Intn(24) {
		copy(input[off:], pats[r.Intn(len(pats))])
		if r.Intn(2) == 0 {
			input[off+r.Intn(12)] = alphabet[r.Intn(len(alphabet))]
		}
	}
	cfg := Config{StrideDims: 4, Score: w}
	pruned, err := CompileAutomaton(n, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// The open threshold prunes nothing; the sealed table then carries the
	// real one, as an artifact of the unpruning compiler did.
	open := w.Clone()
	open.Threshold = -automata.ScoreLimit
	res, err := core.Compile(n, core.Config{TargetBits: 4, StrideDims: 4, Weights: open})
	if err != nil {
		t.Fatal(err)
	}
	res.Weights.Threshold = w.Threshold
	pl, err := place.Place(res.NFA, place.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := artifact.FromResult(res, pl, n, artifact.Meta{}).Save(&buf); err != nil {
		t.Fatal(err)
	}
	unpruned, err := LoadMachine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if full, live := unpruned.Model().States, pruned.Model().States; live >= full {
		t.Fatalf("the pruned machine has %d states, the unpruned %d: want fewer", live, full)
	}
	want := pruned.Match(input)
	if len(want) == 0 {
		t.Fatal("no scored matches — the input is inert")
	}
	if got := unpruned.Match(input); !reflect.DeepEqual(got, want) {
		t.Fatalf("the unpruned artifact matches %d, the pruned machine %d", len(got), len(want))
	}
}
