package impala

import (
	"bytes"
	"fmt"
	"io"
	"regexp"
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
