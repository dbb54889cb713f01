package impala

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"regexp"
	"slices"
	"strings"
	"testing"

	"impala/internal/automata"
	"impala/internal/bitvec"
)

func TestCompileRegexAndRun(t *testing.T) {
	m, err := CompileRegex([]string{"GET /", "POST /", `\d+\.\d+`}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	matches := m.Run([]byte("GET /index 12.5 POST /x"))
	if len(matches) == 0 {
		t.Fatal("no matches")
	}
	wantGET := Match{End: 5, Pattern: 0}
	found := false
	for _, mt := range matches {
		if mt == wantGET {
			found = true
		}
	}
	if !found {
		t.Fatalf("GET match missing: %v", matches)
	}
}

func TestRunAgreesWithSimulate(t *testing.T) {
	m, err := CompileRegex([]string{"ab+c", "x[yz]"}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		input := make([]byte, 1+r.Intn(50))
		for i := range input {
			input[i] = "abcxyz"[r.Intn(6)]
		}
		hw := m.Run(input)
		sw, err := m.Simulate(input)
		if err != nil {
			t.Fatal(err)
		}
		if len(hw) != len(sw) {
			t.Fatalf("hw=%v sw=%v", hw, sw)
		}
		for i := range hw {
			if hw[i] != sw[i] {
				t.Fatalf("hw=%v sw=%v", hw, sw)
			}
		}
	}
}

func TestAllDesignPoints(t *testing.T) {
	patterns := []string{"hello", "wor[lk]d"}
	input := []byte("say hello world work")
	re := regexp.MustCompile("hello|wor[lk]d")
	want := len(re.FindAllString(string(input), -1))
	for _, cfg := range []Config{
		{StrideDims: 1},
		{StrideDims: 2},
		{StrideDims: 4},
		{StrideDims: 8},
		{StrideDims: 1, CAMode: true},
		{StrideDims: 2, CAMode: true},
	} {
		m, err := CompileRegex(patterns, cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		got := m.Run(input)
		if len(got) != want {
			t.Fatalf("%+v: matches = %v, want %d", cfg, got, want)
		}
	}
}

func TestModel(t *testing.T) {
	m, err := CompileRegex([]string{"abcdef"}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	md := m.Model()
	if md.BitsPerCycle != 16 || md.ThroughputGbps < 79 || md.ThroughputGbps > 81 {
		t.Fatalf("model = %+v", md)
	}
	if md.States == 0 || md.OriginalStates != 6 || md.G4s != 1 {
		t.Fatalf("model = %+v", md)
	}
	if md.AreaMM2 <= 0 || md.ThroughputPerMM2 <= 0 || md.BitstreamBytes <= 0 {
		t.Fatalf("model = %+v", md)
	}
	if len(md.CompileStages) == 0 {
		t.Fatal("no compile stages")
	}
}

func TestCompileRegexErrors(t *testing.T) {
	if _, err := CompileRegex(nil, DefaultConfig()); err == nil {
		t.Fatal("empty pattern list accepted")
	}
	if _, err := CompileRegex([]string{"("}, DefaultConfig()); err == nil {
		t.Fatal("bad pattern accepted")
	}
	if _, err := CompileRegex([]string{"a"}, Config{StrideDims: 3}); err == nil {
		t.Fatal("bad stride accepted")
	}
}

func TestCompileAutomaton(t *testing.T) {
	n := automata.New(8, 1)
	n.AddChain([]bitvec.ByteSet{bitvec.ByteRange('a', 'c'), bitvec.ByteOf('!')}, automata.StartAllInput, 9)
	m, err := CompileAutomaton(n, Config{StrideDims: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := m.Run([]byte("xa!b!"))
	if len(got) != 2 || got[0].Pattern != 9 {
		t.Fatalf("matches = %v", got)
	}
}

func ExampleCompileRegex() {
	m, err := CompileRegex([]string{"needle"}, DefaultConfig())
	if err != nil {
		panic(err)
	}
	for _, match := range m.Run([]byte("haystack needle haystack")) {
		fmt.Printf("pattern %d ends at byte %d\n", match.Pattern, match.End)
	}
	// Output: pattern 0 ends at byte 15
}

func TestCompileANMLFacade(t *testing.T) {
	doc := `<automata-network id="t">
	  <state-transition-element id="a" symbol-set="h" start="all-input">
	    <activate-on-match element="b"/>
	  </state-transition-element>
	  <state-transition-element id="b" symbol-set="i">
	    <report-on-match reportcode="5"/>
	  </state-transition-element>
	</automata-network>`
	m, err := CompileANML(strings.NewReader(doc), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	got := m.Run([]byte("say hi twice: hi"))
	if len(got) != 2 || got[0].Pattern != 5 || got[0].End != 6 {
		t.Fatalf("matches = %v", got)
	}
	if _, err := CompileANML(strings.NewReader("not xml"), DefaultConfig()); err == nil {
		t.Fatal("bad ANML accepted")
	}
}

// A Stream fed arbitrary chunk partitions must observe exactly the matches
// of the batch paths, with absolute end offsets, and be reusable after
// Reset. Several streams share one compiled machine.
func TestStreamMatchesRun(t *testing.T) {
	m, err := CompileRegex([]string{"GET /", "POST /", "needle"}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(21))
	corpus := []byte(strings.Repeat("GET /a needle POST /b xyzneedle ", 8))
	want := m.Run(corpus)
	wantSet := map[Match]bool{}
	for _, mt := range want {
		wantSet[mt] = true
	}

	for trial := 0; trial < 6; trial++ {
		var got []Match
		s := m.NewStream(func(mt Match) { got = append(got, mt) })
		for pass := 0; pass < 2; pass++ {
			got = nil
			for pos := 0; pos < len(corpus); {
				sz := 1 + r.Intn(9)
				if sz > len(corpus)-pos {
					sz = len(corpus) - pos
				}
				s.Feed(corpus[pos : pos+sz])
				pos += sz
			}
			s.Flush()
			if len(got) != len(want) {
				t.Fatalf("trial %d pass %d: stream %d matches, batch %d\nstream: %v\nbatch:  %v",
					trial, pass, len(got), len(want), got, want)
			}
			for _, mt := range got {
				if !wantSet[mt] {
					t.Fatalf("trial %d: stream produced %+v not in batch set", trial, mt)
				}
			}
			s.Reset()
		}
	}

	// Sessions step their engines 2 KiB of input at a time. The block edge
	// must not show in the stream: with a "needle" ending on the last cycle
	// of the first block (so its collision window straddles the edge) every
	// match is emitted exactly once and in the batch order, on every serving
	// form, however the stream is cut around the edge.
	const block = 2048
	long := []byte(strings.Repeat(string(corpus[:32]), 2*block/32+3))
	edge := Match{End: block - 1, Pattern: 2}
	for _, cfg := range []Config{
		{StrideDims: 4}, {StrideDims: 1}, {StrideDims: 4, Tier: true},
		{StrideDims: 4, Shards: 3}, {StrideDims: 4, Shards: 3, Tier: true},
	} {
		m, err := CompileRegex([]string{"GET /", "POST /", "needle"}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := m.Match(long)
		if !slices.Contains(want, edge) {
			t.Fatalf("%+v: no match %+v on the block edge; the fixture pins nothing", cfg, edge)
		}
		for _, cut := range []int{1, 3, block - 3, block - 1, block, block + 1, block + 3, len(long)} {
			var got []Match
			s := m.NewStream(func(mt Match) { got = append(got, mt) })
			s.Feed(long[:1])
			for rest := long[1:]; len(rest) > 0; rest = rest[min(cut, len(rest)):] {
				s.Feed(rest[:min(cut, len(rest))])
			}
			s.Flush()
			if !slices.Equal(got, want) {
				t.Fatalf("%+v, %d-byte chunks: stream emitted %d matches, batch %d (or another order)", cfg, cut, len(got), len(want))
			}
		}
	}
}

// Stream implements io.Writer, so any byte pipeline can terminate in the
// matcher; matches fire during Copy.
func TestStreamAsWriter(t *testing.T) {
	m, err := CompileRegex([]string{"abc"}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	s := m.NewStream(func(Match) { count++ })
	var w io.Writer = s
	if _, err := io.Copy(w, bytes.NewReader([]byte("xxabcxxabc"))); err != nil {
		t.Fatal(err)
	}
	s.Flush()
	if count != 2 {
		t.Fatalf("stream saw %d matches, want 2", count)
	}
}

// Many concurrent streams over one machine must not interfere: the compiled
// form is immutable and shared, stream state is private.
func TestConcurrentStreams(t *testing.T) {
	m, err := CompileRegex([]string{"abc", "cba"}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	inputs := [][]byte{
		[]byte(strings.Repeat("abc", 50)),
		[]byte(strings.Repeat("cba", 50)),
		[]byte(strings.Repeat("xyz", 50)),
	}
	wants := make([]int, len(inputs))
	for i, in := range inputs {
		wants[i] = len(m.Run(in))
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			in, want := inputs[g%len(inputs)], wants[g%len(inputs)]
			count := 0
			s := m.NewStream(func(Match) { count++ })
			for k := 0; k < 20; k++ {
				count = 0
				for i := 0; i < len(in); i += 7 {
					end := i + 7
					if end > len(in) {
						end = len(in)
					}
					s.Feed(in[i:end])
				}
				s.Flush()
				if count != want {
					done <- fmt.Errorf("goroutine %d run %d: %d matches, want %d", g, k, count, want)
					return
				}
				s.Reset()
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestFlushClearsStreamDedup pins the Flush half of the stream-reuse
// contract: Flush must retire the per-window match-dedup entries, so a
// reused stream can never suppress a legitimate repeat of an earlier match
// (same end offset, same pattern) in a later run.
func TestFlushClearsStreamDedup(t *testing.T) {
	m, err := CompileRegex([]string{"needle"}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var got []Match
	s := m.NewStream(func(mt Match) { got = append(got, mt) })

	input := []byte("xx needle yy")
	s.Feed(input)
	s.Flush()
	if len(got) != 1 {
		t.Fatalf("first run: %d matches, want 1: %v", len(got), got)
	}
	first := got[0]
	if s.curCycle != -1 || len(s.seen) != 0 {
		t.Fatalf("Flush left dedup state behind: curCycle %d, %d seen entries", s.curCycle, len(s.seen))
	}

	// Reuse the stream on the identical input: the same (End, Pattern)
	// must be reported again, not swallowed by stale window entries.
	s.Reset()
	s.Feed(input)
	s.Flush()
	if len(got) != 2 {
		t.Fatalf("reused stream: %d matches total, want 2: %v", len(got), got)
	}
	if got[1] != first {
		t.Fatalf("repeat match diverges: %+v vs %+v", got[1], first)
	}
}

// TestArtifactRoundTripFacade is the deployment-model acceptance property
// at the facade level: a machine saved as an artifact and loaded back in a
// fresh process state matches byte-identically across every execution path
// and reports the same model.
func TestArtifactRoundTripFacade(t *testing.T) {
	m, err := CompileRegex([]string{"GET /", "ab+a", `\d\d`}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.SaveArtifact(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadMachine(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	input := []byte("GET /abba 42 abbba GET / 7x19")
	if want, got := m.Run(input), loaded.Run(input); !matchesEqual(want, got) {
		t.Fatalf("Run diverges: %v vs %v", got, want)
	}
	if want, got := m.Match(input), loaded.Match(input); !matchesEqual(want, got) {
		t.Fatalf("Match diverges: %v vs %v", got, want)
	}
	ws, err := m.Simulate(input)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := loaded.Simulate(input)
	if err != nil {
		t.Fatal(err)
	}
	if !matchesEqual(ws, gs) {
		t.Fatalf("Simulate diverges: %v vs %v", gs, ws)
	}

	var streamGot []Match
	s := loaded.NewStream(func(mt Match) { streamGot = append(streamGot, mt) })
	for i := 0; i < len(input); i += 5 {
		end := i + 5
		if end > len(input) {
			end = len(input)
		}
		s.Feed(input[i:end])
	}
	s.Flush()
	if want := m.Match(input); !matchesEqual(want, streamGot) {
		t.Fatalf("loaded stream diverges: %v vs %v", streamGot, want)
	}

	wm, lm := m.Model(), loaded.Model()
	if lm.States != wm.States || lm.OriginalStates != wm.OriginalStates ||
		lm.G4s != wm.G4s || lm.BitsPerCycle != wm.BitsPerCycle ||
		lm.ThroughputGbps != wm.ThroughputGbps || lm.BitstreamBytes != wm.BitstreamBytes {
		t.Fatalf("model diverges:\nloaded %+v\nwant   %+v", lm, wm)
	}
	if len(lm.CompileStages) != len(wm.CompileStages) {
		t.Fatalf("stage trace lost: %d vs %d stages", len(lm.CompileStages), len(wm.CompileStages))
	}
	wb, ws2 := m.Geometry()
	lb, ls2 := loaded.Geometry()
	if wb != lb || ws2 != ls2 {
		t.Fatalf("geometry diverges: %d/%d vs %d/%d", lb, ls2, wb, ws2)
	}

	// A loaded machine re-saves to the identical byte stream.
	var buf2 bytes.Buffer
	if err := loaded.SaveArtifact(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("re-saved artifact not byte-identical: %d vs %d bytes", buf2.Len(), buf.Len())
	}
}

func matchesEqual(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestTieredMachineFacade(t *testing.T) {
	patterns := []string{"GET /", "a.{12}b", `\d\d`, "needle"}
	cfg := DefaultConfig()
	plain, err := CompileRegex(patterns, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Tier = true
	cfg.TierBudget = 1024
	tiered, err := CompileRegex(patterns, cfg)
	if err != nil {
		t.Fatal(err)
	}
	info := tiered.TierInfo()
	if info == nil || info.DFACCs == 0 {
		t.Fatalf("tiered machine has no DFA tier: %+v", info)
	}
	if plain.TierInfo() != nil {
		t.Fatal("untiered machine reports a tier plan")
	}

	input := []byte("GET /x aXXXXXXXXXXXXb 42 needle GET / needle 77")
	want := plain.Match(input)
	if got := tiered.Match(input); !matchesEqual(want, got) {
		t.Fatalf("tiered Match diverges: %v vs %v", got, want)
	}

	var streamGot []Match
	s := tiered.NewStream(func(mt Match) { streamGot = append(streamGot, mt) })
	for i := 0; i < len(input); i += 3 {
		end := i + 3
		if end > len(input) {
			end = len(input)
		}
		s.Feed(input[i:end])
	}
	s.Flush()
	if !matchesEqual(want, streamGot) {
		t.Fatalf("tiered stream diverges: %v vs %v", streamGot, want)
	}

	// The plan travels inside the artifact: a loaded machine keeps the
	// fast path and the identical plan.
	var buf bytes.Buffer
	if err := tiered.SaveArtifact(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadMachine(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	linfo := loaded.TierInfo()
	if linfo == nil || *linfo != *info {
		t.Fatalf("tier plan diverges across artifact: %+v vs %+v", linfo, info)
	}
	if got := loaded.Match(input); !matchesEqual(want, got) {
		t.Fatalf("loaded tiered Match diverges: %v vs %v", got, want)
	}
	// And the loaded machine re-saves byte-identically (v2 sections are
	// deterministic too).
	var buf2 bytes.Buffer
	if err := loaded.SaveArtifact(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("tiered artifact save(load(save)) not byte-identical")
	}
}

func TestShardedMachineFacade(t *testing.T) {
	patterns := []string{"GET /", "a.{12}b", `\d\d`, "needle", "zz.?zz"}
	cfg := DefaultConfig()
	plain, err := CompileRegex(patterns, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 4
	cfg.Tier = true
	cfg.TierBudget = 1024
	sharded, err := CompileRegex(patterns, cfg)
	if err != nil {
		t.Fatal(err)
	}
	info := sharded.ShardInfo()
	if info == nil || info.Shards != 4 {
		t.Fatalf("sharded machine has no shard plan: %+v", info)
	}
	if info.TieredShards == 0 || info.DFAStates == 0 {
		t.Fatalf("per-shard tiering bought no fast path: %+v", info)
	}
	if plain.ShardInfo() != nil {
		t.Fatal("unsharded machine reports a shard plan")
	}

	input := []byte("GET /x aXXXXXXXXXXXXb 42 needle zzAzz GET / needle 77")
	want := plain.Match(input)
	if got := sharded.Match(input); !matchesEqual(want, got) {
		t.Fatalf("sharded Match diverges: %v vs %v", got, want)
	}

	var streamGot []Match
	s := sharded.NewStream(func(mt Match) { streamGot = append(streamGot, mt) })
	for i := 0; i < len(input); i += 3 {
		end := i + 3
		if end > len(input) {
			end = len(input)
		}
		s.Feed(input[i:end])
	}
	s.Flush()
	if !matchesEqual(want, streamGot) {
		t.Fatalf("sharded stream diverges: %v vs %v", streamGot, want)
	}

	// The partition travels inside the artifact: a loaded machine keeps
	// the shard engines, the per-shard fast paths and the identical plan.
	var buf bytes.Buffer
	if err := sharded.SaveArtifact(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadMachine(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	linfo := loaded.ShardInfo()
	if linfo == nil || *linfo != *info {
		t.Fatalf("shard plan diverges across artifact: %+v vs %+v", linfo, info)
	}
	if loaded.Config().Shards != 4 || !loaded.Config().Tier {
		t.Fatalf("loaded config loses sharding: %+v", loaded.Config())
	}
	if got := loaded.Match(input); !matchesEqual(want, got) {
		t.Fatalf("loaded sharded Match diverges: %v vs %v", got, want)
	}
	var buf2 bytes.Buffer
	if err := loaded.SaveArtifact(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("sharded artifact save(load(save)) not byte-identical")
	}
}
