// Package simtest is the differential spine every execution form's tests
// share: one case source (random automata at every geometry, a regex set
// compiled at every geometry, small workload families), one chunking sweep,
// and one check of a form against the scalar engine over every case and
// chunking (Spine). Each package lists its forms as the rows of one TestSpine
// table, so a new form is one row.
package simtest

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"impala/internal/automata"
	"impala/internal/bitvec"
	"impala/internal/core"
	"impala/internal/dfa"
	"impala/internal/regexc"
	"impala/internal/sim"
	"impala/internal/workload"
)

// Stream is the streaming side of an execution form: *sim.Session, and every
// session type that wraps one.
type Stream interface {
	Feed([]byte)
	Flush()
	Reset()
	Stats() sim.Stats
}

// probe is a sim.Core that only records the longest block it was handed.
type probe struct{ longest int }

func (p *probe) Geometry() (bits, stride int) { return 8, 1 }
func (p *probe) ResetState()                  {}
func (p *probe) StepBlock(subs []byte, _ int, _ int, _ sim.ReportSink, _ sim.Tracer) (int64, int64, int) {
	p.longest = max(p.longest, len(subs))
	return 0, 0, 0
}

// FeedBlock returns how many input bytes a sim.Session hands its core per
// StepBlock call, observed rather than assumed: the longest block an
// 8-bit × 1-stride core sees of one long Feed.
func FeedBlock() int {
	var p probe
	sim.NewSession(&p, nil).Feed(make([]byte, 1<<20))
	return p.longest
}

// Case is one automaton of the spine and the input every form runs over it.
// Source is the 8-bit, stride-1 automaton NFA was compiled from — what a
// facade compiles — or nil for an automaton drawn at its geometry.
type Case struct {
	Name        string
	NFA, Source *automata.NFA
	Input       []byte
	split       *int // SplitBudget, once computed
}

// SplitBudget returns the component budget (dfa.TierOptions.CCMaxStates)
// that puts the components with the smallest trial DFA on the DFA tier and
// leaves the others to the kernel, so that the form has both tiers unless
// every component determinizes to one size; 0, the dfa default, when none
// determinizes within that default.
func (c *Case) SplitBudget(t testing.TB) int {
	if c.split == nil {
		// A union budget of one state keeps the union builds to a glance.
		sel, err := dfa.Select(c.NFA, dfa.TierOptions{MinStateShare: -1, MaxStates: 1, Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		c.split = new(int)
		for _, cc := range sel.Plan().CCs {
			if cc.DFAStates > 0 && (*c.split == 0 || cc.DFAStates < *c.split) {
				*c.split = cc.DFAStates
			}
		}
	}
	return *c.split
}

// Cases returns the spine's cases, built afresh for each caller:
//   - random automata at every (bits, stride), each a union of a few random
//     blocks (so that forms over several components apply), one over an input
//     past two session blocks where a cycle takes at least a byte, and (not
//     under -short) one over a short input;
//   - six rules — six components, one anchored — at every geometry the
//     compiler emits, over text of their words;
//   - one dot-star rule as compiled (8-bit × 1, one component), over text
//     that arms it once, early in its first block;
//   - five rules over the letters a to d at 4-bit × 2 and × 4, whose DFAs
//     step bytes, over text of their words;
//   - rules at 4-bit × 4 with an even start over runs of dots they skip;
//   - literals whose states share a word at 8-bit × 1 (with an even start),
//     4-bit × 2 and × 4, and at 8-bit × 2 rules with a residual start, over
//     text of their words;
//   - literals at 8-bit × 1 and 4-bit × 4 over filler that hits only their
//     start states, with a reporting byte just past each block seam;
//   - workload families at scale 0.005 compiled at the design point (4-bit ×
//     4), over their own input generator's bytes (three under -short).
//
// Every long input is odd-length, so that each strided geometry ends on a
// zero-padded cycle.
func Cases(t testing.TB) []*Case {
	t.Helper()
	long := 2*FeedBlock() + 101
	r := rand.New(rand.NewSource(27))
	var cases []*Case
	for _, bits := range []int{2, 4, 8} {
		for _, stride := range []int{1, 2, 4, 8} {
			sizes := []int{long, r.Intn(300)}
			if bits*stride < 8 {
				sizes[0] = r.Intn(300) // long, too many cycles; regex 4-bit × 1 is long
			}
			if testing.Short() {
				sizes = sizes[:1]
			}
			for _, size := range sizes {
				n := automata.New(bits, stride)
				for b := 1 + r.Intn(5); b > 0; b-- {
					addBlock(r, n, 2+r.Intn(8))
				}
				input := make([]byte, size)
				for i := range input {
					input[i] = byte(r.Intn(256)) & []byte{0x33, 0x33, 0x11, 0xff}[r.Intn(4)]
				}
				cases = append(cases, &Case{Name: fmt.Sprintf("random %d-bit x %d, %d bytes", bits, stride, size), NFA: n, Input: input})
			}
		}
	}

	compile := func(src *automata.NFA, bits, stride int) *automata.NFA {
		res, err := core.Compile(src, core.Config{TargetBits: bits, StrideDims: stride})
		if err != nil {
			t.Fatal(err)
		}
		return res.NFA
	}
	src := regexc.MustCompile([]regexc.Rule{
		{Pattern: "impala", Code: 1}, {Pattern: "bl[ao]ck", Code: 2}, {Pattern: "^head", Code: 3},
		{Pattern: "e+dge", Code: 4}, {Pattern: "x[yz]+w", Code: 5}, {Pattern: "go+al", Code: 6},
		// Two rules that end where another does, one with a lower code: rows
		// that tie on End, which the facade orders by pattern.
		{Pattern: "dge", Code: 7}, {Pattern: "ck", Code: 0},
	})
	words := []string{"head ", "impala ", "block ", "black ", "eedge ", "xyzzw ", "goooal ", "gal ", "edge", "bla", "xw "}
	var text strings.Builder
	text.WriteString("head ") // the anchored rule fires once
	for text.Len() < long {
		text.WriteString(words[r.Intn(len(words))])
	}
	input := []byte(text.String()[:long])
	cases = append(cases, &Case{Name: "regex 8-bit x 1", NFA: src, Source: src, Input: input})
	for _, geo := range [][2]int{{8, 2}, {4, 1}, {4, 2}, {4, 4}, {4, 8}, {2, 4}} {
		cases = append(cases, &Case{Name: fmt.Sprintf("regex %d-bit x %d", geo[0], geo[1]), NFA: compile(src, geo[0], geo[1]), Source: src, Input: input})
	}

	// A dot-star rule armed once, early in the first block: a DFA walker that
	// guesses a later segment's entry state from the block's (unarmed) one
	// misses at its seam and walks the segment again. As compiled, the rule
	// is the automaton's one component, so every tiered form, whatever its
	// budget, walks it on a DFA alone, in whole blocks.
	armed := regexc.MustCompile([]regexc.Rule{{Pattern: "q.*z", Code: 1}})
	words = []string{"zebra ", "fizz ", "maze ", "topaz ", "jazz ", "haze "}
	text.Reset()
	text.WriteString("head quiet ")
	for text.Len() < long {
		text.WriteString(words[r.Intn(len(words))])
	}
	cases = append(cases, &Case{Name: "dot-star regex 8-bit x 1", NFA: armed, Source: armed, Input: []byte(text.String()[:long])})

	// Rules over the letters a to d: their sub-symbols have so few classes
	// (2 at a byte's high nibble, 5 at its low one) that a DFA over them at
	// 4-bit × 2 and × 4 steps bytes, one and two a cycle; a.{9}d is the
	// component the split budget leaves to the kernel.
	abcd := regexc.MustCompile([]regexc.Rule{
		{Pattern: "ab+c", Code: 1}, {Pattern: "^dab", Code: 2}, {Pattern: "c.*dd", Code: 3},
		{Pattern: "a.{9}d", Code: 4}, {Pattern: "b[ad]a", Code: 5},
	})
	words = []string{"abc ", "dab ", "cdd ", "abbbc ", "bda ", "baa ", "acbdacbdad "}
	text.Reset()
	text.WriteString("dab ")
	for text.Len() < long {
		text.WriteString(words[r.Intn(len(words))])
	}
	for _, dims := range []int{2, 4} {
		cases = append(cases, &Case{Name: fmt.Sprintf("a-to-d regex 4-bit x %d", dims), NFA: compile(abcd, 4, dims), Source: abcd, Input: []byte(text.String()[:long])})
	}

	// Rules at 4-bit × 4 with an anchored start and, added by hand, a
	// StartEven state on "ba", over long runs of dots no start state
	// matches: the kernel skips those cycles on both parities, from the one
	// after the first on, and "ba" reports only where it starts an even
	// cycle.
	quiet := compile(regexc.MustCompile([]regexc.Rule{
		{Pattern: "^he", Code: 1}, {Pattern: "impala", Code: 2}, {Pattern: "e+dge", Code: 3},
	}), 4, 4)
	quiet.AddState(automata.State{
		Match: automata.MatchSet{{bitvec.ByteOf(6), bitvec.ByteOf(2), bitvec.ByteOf(6), bitvec.ByteOf(1)}},
		Start: automata.StartEven, Report: true, ReportCode: 4, ReportOffset: 4,
	})
	words = []string{"....", "........", "ba", ".ba.", "..ba", "impala", "eedge", ".", strings.Repeat(".", 300)}
	text.Reset()
	text.WriteString("he")
	for text.Len() < long {
		text.WriteString(words[r.Intn(len(words))])
	}
	cases = append(cases, &Case{Name: QuietCase, NFA: quiet, Input: []byte(text.String()[:long])})

	// Literals whose states share a word, for the kernel's start images: on
	// "abc" the image successor of the hit "a" and the start hit "b" land on
	// one word, and on the cycle after the carried "ab", the successor of the
	// hit "b" and the start hit "c" do. At 8-bit × 1 an even start "cab"
	// makes the odd and the even vector differ; the all-input rules compile
	// to 4-bit × 2 and × 4 as well. At 8-bit × 2 a start state no product of
	// per-byte sets expresses (a residual state) keeps both vectors from
	// images, so that kernel sweeps its start words.
	lits := automata.New(8, 1)
	for code, w := range []string{"abc", "bc", "c", "cab"} {
		lits.AddLiteral(w, automata.StartAllInput, code+1)
	}
	even := automata.New(8, 1)
	for code, w := range []string{"abc", "bc", "c"} {
		even.AddLiteral(w, automata.StartAllInput, code+1)
	}
	even.AddLiteral("cab", automata.StartEven, 4)
	resid := automata.New(8, 2)
	head := resid.AddState(automata.State{
		Match: automata.MatchSet{{bitvec.ByteOf('a'), bitvec.ByteOf('b')}, {bitvec.ByteOf('c'), bitvec.ByteOf('a')}},
		Start: automata.StartAllInput,
	})
	tail := resid.AddState(automata.State{
		Match:  automata.MatchSet{{bitvec.ByteRange('a', 'c'), bitvec.ByteOf('c')}},
		Report: true, ReportCode: 1, ReportOffset: 1,
	})
	resid.AddEdge(head, tail)
	resid.AddState(automata.State{
		Match: automata.MatchSet{{bitvec.ByteOf('b'), bitvec.ByteOf('c')}}, Start: automata.StartAllInput,
		Report: true, ReportCode: 2,
	})
	words = []string{"abc", "abcab", "cab", "bc", "c", "ab", "ca", "xabcx", "zz", strings.Repeat(".", 40)}
	text.Reset()
	for text.Len() < long {
		text.WriteString(words[r.Intn(len(words))])
	}
	input = []byte(text.String()[:long])
	cases = append(cases,
		&Case{Name: ImageCase + " 8-bit x 1", NFA: even, Input: input},
		&Case{Name: ImageCase + " 4-bit x 2", NFA: compile(lits, 4, 2), Source: lits, Input: input},
		&Case{Name: ImageCase + " 4-bit x 4", NFA: compile(lits, 4, 4), Source: lits, Input: input},
		&Case{Name: ResidualStartCase, NFA: resid, Input: input},
	)

	// Literals whose start states the filler hits cycle after cycle while
	// their successors reject it: the kernel steps the filler by image number,
	// in runs across the seams at one and two blocks, each ending in a "q"
	// that reports from a start image a few cycles past the seam. The filler
	// is whole 2-byte cycles, so that at 4-bit × 4 a seam falls between two.
	seam := automata.New(8, 1)
	for code, w := range []string{"xyz", "yq", "q"} {
		seam.AddLiteral(w, automata.StartAllInput, code+1)
	}
	filler := "xxx.yyy."
	text.Reset()
	for _, end := range []int{FeedBlock() + 8, 2*FeedBlock() + 8} {
		for text.Len() < end {
			text.WriteString(filler)
		}
		text.WriteString("q.")
	}
	text.WriteString("xyz")
	for text.Len() < long {
		text.WriteString(filler)
	}
	input = []byte(text.String()[:long])
	cases = append(cases,
		&Case{Name: SeamRunCase + " 8-bit x 1", NFA: seam, Input: input},
		&Case{Name: SeamRunCase + " 4-bit x 4", NFA: compile(seam, 4, 4), Source: seam, Input: input},
	)

	families := []string{"ExactMatch", "Hamming", "RandomForest", "CoreRings", "Snort", "Bro217", "Fermi"}
	if testing.Short() {
		families = families[:3]
	}
	for _, name := range families {
		b, _ := workload.Get(name)
		n8, err := b.Generate(0.005, 1)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, &Case{Name: name + " 4-bit x 4", NFA: compile(n8, 4, 4), Source: n8, Input: workload.Input(n8, long, 4)})
	}
	return cases
}

// QuietCase names the case whose long runs of cycles no start state matches
// the kernel skips; ImageCase prefixes the literal cases whose states share
// a word, ResidualStartCase names the one whose start vector holds a
// residual state, and SeamRunCase prefixes the cases whose runs of
// start-only cycles cross a block seam and end in a report.
const (
	QuietCase         = "quiescent runs 4-bit x 4"
	ImageCase         = "shared-word literals"
	ResidualStartCase = "residual start 8-bit x 2"
	SeamRunCase       = "image runs across a seam"
)

// RandomWeights returns a weight table for n drawn from seed: integer
// weights in [-5, 5] on every edge and [-3, 3] on every start, and the open
// threshold -ScoreLimit, which every report clears — so a scored form over it
// reports what the binary forms report, each with a score.
func RandomWeights(n *automata.NFA, seed int64) *automata.Weights {
	r := rand.New(rand.NewSource(seed))
	w := automata.NewWeights(n)
	for i := range w.Edge {
		for j := range w.Edge[i] {
			w.Edge[i][j] = float64(r.Intn(11) - 5)
		}
		w.Start[i] = float64(r.Intn(7) - 3)
	}
	w.Threshold = -automata.ScoreLimit
	return w
}

// RandomNFA draws one random block at a random (bits, stride) geometry, of
// the given state count — 0 draws 3 to 14.
func RandomNFA(r *rand.Rand, states int) *automata.NFA {
	n := automata.New([]int{2, 4, 8}[r.Intn(3)], []int{1, 2, 4, 8}[r.Intn(4)])
	if states == 0 {
		states = 3 + r.Intn(12)
	}
	addBlock(r, n, states)
	return n
}

// addBlock appends a block of random states to n, with random edges among
// them: every start kind, a mix of single-rect, decomposable-union and
// non-decomposable-union match sets (the kernel's residual path), report
// offsets anywhere in the stride chunk. Half the values a rect admits are the
// 0–3 that the spine's random inputs favour, so walks get past their starts.
// A block of more than 64 states keeps its starts in its first sixteenth, so
// most of its words are live only while a successor row reaches them; past
// 4,096 states the kernel's summaries span more than one word.
func addBlock(r *rand.Rand, n *automata.NFA, states int) {
	dom := automata.DomainSize(n.Bits)
	off := n.NumStates()
	for i := 0; i < states; i++ {
		ms := automata.MatchSet{}
		for k := 0; k < 1+r.Intn(3); k++ {
			rect := make(automata.Rect, n.Stride)
			for d := range rect {
				for v := 0; v < 1+r.Intn(3); v++ {
					rect[d] = rect[d].Add(byte(r.Intn([]int{4, dom}[r.Intn(2)])))
				}
				if r.Intn(5) == 0 {
					rect[d] = automata.Domain(n.Bits)
				}
			}
			ms = ms.Add(rect)
		}
		kind := []automata.StartKind{automata.StartAllInput, automata.StartOfData, automata.StartEven, automata.StartNone, automata.StartNone, automata.StartNone}[r.Intn(6)]
		if i == 0 {
			kind = automata.StartAllInput
		} else if states > 64 && i > states/16 {
			kind = automata.StartNone
		}
		n.AddState(automata.State{Match: ms, Start: kind, Report: r.Intn(3) == 0, ReportCode: off + i, ReportOffset: 1 + r.Intn(n.Stride)})
	}
	for k := 0; k < states*2; k++ {
		n.AddEdge(automata.StateID(off+r.Intn(states)), automata.StateID(off+r.Intn(states)))
	}
	n.DedupEdges()
}
