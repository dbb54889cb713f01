package regexc

import (
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"impala/internal/automata"
	"impala/internal/sim"
)

func automataNew4() *automata.NFA { return automata.New(4, 1) }

// matchEnds runs the compiled automaton and returns the set of byte offsets
// (1-based end positions) where rule 1 matched.
func matchEnds(t *testing.T, pattern, input string) map[int]bool {
	t.Helper()
	n, err := Compile([]Rule{{Pattern: pattern, Code: 1}})
	if err != nil {
		t.Fatalf("Compile(%q): %v", pattern, err)
	}
	reports, _, err := sim.Run(n, []byte(input))
	if err != nil {
		t.Fatal(err)
	}
	out := map[int]bool{}
	for _, r := range reports {
		out[r.BitPos/8] = true
	}
	return out
}

// refEnds computes match end positions using Go's regexp as ground truth:
// for every start offset, the shortest and longest leftmost matches don't
// enumerate *all* NFA match ends, so we test membership per substring
// instead: end position e is a match end iff some substring input[s:e]
// matches the whole pattern.
func refEnds(t *testing.T, pattern, input string, anchored bool) map[int]bool {
	t.Helper()
	flags := "(?s)"
	body := pattern
	if strings.HasPrefix(body, "(?i)") {
		flags = "(?si)"
		body = body[4:]
	}
	body = strings.TrimPrefix(body, "^")
	re := regexp.MustCompile("^" + flags + "(?:" + body + ")$")
	out := map[int]bool{}
	for e := 1; e <= len(input); e++ {
		starts := e
		if anchored {
			starts = 1
		}
		for s := 0; s < starts; s++ {
			if re.MatchString(input[s:e]) {
				out[e] = true
				break
			}
			if anchored {
				break
			}
		}
	}
	return out
}

func sameSet(a, b map[int]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func checkAgainstGo(t *testing.T, pattern, input string) {
	t.Helper()
	anchored := strings.HasPrefix(strings.TrimPrefix(pattern, "(?i)"), "^")
	got := matchEnds(t, pattern, input)
	want := refEnds(t, pattern, input, anchored)
	if !sameSet(got, want) {
		t.Fatalf("pattern %q input %q: got ends %v, want %v", pattern, input, got, want)
	}
}

func TestLiteral(t *testing.T) { checkAgainstGo(t, "abc", "xxabcxabcx") }
func TestAlternation(t *testing.T) {
	checkAgainstGo(t, "cat|dog|bird", "the cat chased the dog and the bird")
}
func TestStar(t *testing.T)     { checkAgainstGo(t, "ab*c", "ac abc abbbbc abb") }
func TestPlus(t *testing.T)     { checkAgainstGo(t, "ab+c", "ac abc abbbbc") }
func TestQuestion(t *testing.T) { checkAgainstGo(t, "colou?r", "color colour colouur") }
func TestClass(t *testing.T)    { checkAgainstGo(t, "[a-c]x[0-9]", "ax1 bx9 dx3 cx") }
func TestNegClass(t *testing.T) { checkAgainstGo(t, "a[^0-9]b", "axb a1b a-b") }
func TestDot(t *testing.T)      { checkAgainstGo(t, "a.c", "abc a\nc axc") }
func TestGroup(t *testing.T)    { checkAgainstGo(t, "(ab|cd)+e", "abe cde abcde abcdabe x") }
func TestRepeat(t *testing.T) {
	checkAgainstGo(t, "a{3}", "aaaaa")
	checkAgainstGo(t, "a{2,4}", "aaaaaa")
	checkAgainstGo(t, "(ab){2,}", "ababababx")
}
func TestPerlClasses(t *testing.T) {
	checkAgainstGo(t, `\d+`, "abc123def45")
	checkAgainstGo(t, `\w+@\w+`, "mail me at bob@host now")
	checkAgainstGo(t, `a\sb`, "a b a\tb axb")
}
func TestEscapes(t *testing.T) {
	checkAgainstGo(t, `a\.b`, "a.b axb")
	checkAgainstGo(t, `\x41\x42`, "xxABxx")
	checkAgainstGo(t, `a\\b`, `a\b ab`)
}
func TestAnchored(t *testing.T) {
	checkAgainstGo(t, "^abc", "abcabc")
	checkAgainstGo(t, "^a+b", "aab xab")
}

func TestMultipleRules(t *testing.T) {
	n := MustCompile([]Rule{
		{Pattern: "foo", Code: 10},
		{Pattern: "bar", Code: 20},
	})
	reports, _, err := sim.Run(n, []byte("foobar"))
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 || reports[0].Code != 10 || reports[1].Code != 20 {
		t.Fatalf("reports = %v", reports)
	}
	// One connected component per rule.
	if ccs := n.ConnectedComponents(); len(ccs) != 2 {
		t.Fatalf("CCs = %d", len(ccs))
	}
}

func TestSyntaxErrors(t *testing.T) {
	bad := []string{
		"", "(", "(ab", "[", "[]", "a{", "a{2,1}", "a{9999}", "*a", "a**b|*",
		`a\`, `\x4`, `\xzz`, "a$b", "[z-a]", "a|",
	}
	for _, pattern := range bad {
		if _, err := Compile([]Rule{{Pattern: pattern, Code: 1}}); err == nil {
			t.Errorf("pattern %q accepted", pattern)
		}
	}
}

// x{0} is the empty expression: it drops out of a concatenation, a
// quantifier applied to it leaves it empty (0{0}* used to panic the
// compiler), and an alternative or pattern made of nothing else is the
// syntax error an empty one always was.
func TestZeroRepeat(t *testing.T) {
	for _, tc := range []struct{ pattern, same string }{
		{"0{0}*000", "000"},
		{"a{0}+b", "b"},
		{"a{0}?{0,0}{3}bc", "bc"},
		{"xa{0}{0}y", "xy"},
		{"(ab){0}*c|d", "c|d"},
		{"(a{0})+b", ""},
		{"a{0}{0}", ""},
		{"a{0}*", ""},
		{"a|b{0}", ""},
	} {
		if tc.same == "" {
			if _, err := Compile([]Rule{{Pattern: tc.pattern, Code: 1}}); err == nil {
				t.Errorf("pattern %q accepted", tc.pattern)
			}
			continue
		}
		input := "000 b abc xy c d 0000"
		if got, want := matchEnds(t, tc.pattern, input), matchEnds(t, tc.same, input); !sameSet(got, want) || len(got) == 0 {
			t.Errorf("pattern %q: ends %v, %q has %v", tc.pattern, got, tc.same, want)
		}
	}
}

func TestNullablePatternRejected(t *testing.T) {
	for _, pattern := range []string{"a*", "(a|b)*", "a?", "a{0,3}"} {
		if _, err := Compile([]Rule{{Pattern: pattern, Code: 1}}); err == nil {
			t.Errorf("nullable pattern %q accepted", pattern)
		}
	}
}

func TestHomogeneityOfOutput(t *testing.T) {
	n := MustCompile([]Rule{{Pattern: "(ab|cb)d+", Code: 1}})
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	// Glushkov: one state per symbol position.
	if n.NumStates() != 5 {
		t.Fatalf("states = %d, want 5", n.NumStates())
	}
}

// Property: against Go's regexp on random inputs for a pattern mix.
func TestRandomizedAgainstGo(t *testing.T) {
	patterns := []string{
		"ab", "a+b", "a[bc]d", "(ab|ba)+", "a.b", `\d\d`, "x{2,3}y", "^ab+",
	}
	r := rand.New(rand.NewSource(123))
	alphabet := "ab cd019\n"
	for _, pattern := range patterns {
		for trial := 0; trial < 20; trial++ {
			var b strings.Builder
			for k := 0; k < 1+r.Intn(30); k++ {
				b.WriteByte(alphabet[r.Intn(len(alphabet))])
			}
			checkAgainstGo(t, pattern, b.String())
		}
	}
}

func TestAppendAndErrors(t *testing.T) {
	n := MustCompile([]Rule{{Pattern: "aa", Code: 1}})
	if err := Append(n, Rule{Pattern: "bb", Code: 2}); err != nil {
		t.Fatal(err)
	}
	if n.NumStates() != 4 {
		t.Fatalf("states = %d", n.NumStates())
	}
	if err := Append(n, Rule{Pattern: "(", Code: 3}); err == nil {
		t.Fatal("bad pattern accepted by Append")
	}
	var se *SyntaxError
	if err := Append(n, Rule{Pattern: "(", Code: 3}); err != nil {
		if es, ok := err.(*SyntaxError); ok {
			se = es
		}
	}
	if se == nil || se.Error() == "" {
		t.Fatalf("expected a descriptive SyntaxError, got %v", se)
	}
	// Append requires 8-bit stride-1.
	bad := automataNew4()
	if err := Append(bad, Rule{Pattern: "a", Code: 1}); err == nil {
		t.Fatal("4-bit automaton accepted")
	}
}

func TestCaseInsensitiveFlag(t *testing.T) {
	checkAgainstGo(t, "(?i)get", "GET get GeT gEt xet")
	checkAgainstGo(t, "(?i)[a-c]+d", "ABCd abcD AbCd xyz")
	checkAgainstGo(t, `(?i)h\x41t`, "HAT hat hAt")
	// Anchoring composes with the flag.
	checkAgainstGo(t, "(?i)^go", "GO go OG")
	// Negated classes are NOT folded (matching Go's semantics for [^x]).
	n := MustCompile([]Rule{{Pattern: "(?i)a[^b]c", Code: 1}})
	reports, _, err := sim.Run(n, []byte("aBc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 {
		t.Fatalf("a[^b]c should match aBc case-insensitively on the literals: %v", reports)
	}
}
