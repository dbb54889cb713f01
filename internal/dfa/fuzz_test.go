package dfa_test

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"impala/internal/automata"
	"impala/internal/bitvec"
	"impala/internal/core"
	"impala/internal/dfa"
	"impala/internal/regexc"
	"impala/internal/sim"
	"impala/internal/sim/simtest"
)

// FuzzDFAWalk runs a small tier DFA over an input of at least one session
// block fed in chunks, and holds its reports and statistics to the scalar
// engine's: whatever the walker guessed at a seam, its output is the serial
// walk's. There are two DFAs, each with a dot-star rule, an anchored one and
// StartEven states: one at 4 bits a cycle, which steps sub-symbols, and
// (bytes) one over the letters a to d at 4 bits × 4, which steps bytes, two
// a cycle, so that an odd chunk leaves a byte pending. The input is data
// repeated to 2,048 bytes and up to 4,095 more; chunk > 0 feeds it in pieces
// of chunk%4,096 bytes. The seeds reach every way the walker settles a
// block: blocks of one segment (short chunks), of two and three segments
// with filler lanes, of four, and blocks whose guessed segments miss at
// their seams.
func FuzzDFAWalk(f *testing.F) {
	nibbles := compileTier(f, regexc.MustCompile([]regexc.Rule{
		{Pattern: "q.*z", Code: 1}, {Pattern: "^head", Code: 2}, {Pattern: "ab[cd]", Code: 3}, {Pattern: "e+dge", Code: 4},
	}), 1, nil)
	// A StartEven state on "ba", and its successor on a cycle starting 'c'.
	even := func(n *automata.NFA) {
		ba := n.AddState(automata.State{
			Match: automata.MatchSet{{bitvec.ByteOf(6), bitvec.ByteOf(2), bitvec.ByteOf(6), bitvec.ByteOf(1)}},
			Start: automata.StartEven, Report: true, ReportCode: 5, ReportOffset: 4,
		})
		c := n.AddState(automata.State{
			Match:  automata.MatchSet{{bitvec.ByteOf(6), bitvec.ByteOf(3), automata.Domain(4), automata.Domain(4)}},
			Report: true, ReportCode: 6, ReportOffset: 2,
		})
		n.AddEdge(ba, c)
	}
	byteStep := compileTier(f, regexc.MustCompile([]regexc.Rule{
		{Pattern: "a.*d", Code: 1}, {Pattern: "^dab", Code: 2}, {Pattern: "ab[cd]", Code: 3}, {Pattern: "c+ad", Code: 4},
	}), 4, even)
	for _, tf := range []*tier{nibbles, byteStep} {
		if bits, _ := tf.Lane().New().Geometry(); (bits == 8) != (tf == byteStep) {
			f.Fatalf("the walker takes %d-bit symbols", bits)
		}
	}
	block := simtest.FeedBlock()

	f.Add([]byte("head quiet zebra fizz abd eedge "), uint16(0), uint16(0), false)
	f.Add(append([]byte("q"), bytes.Repeat([]byte("zebra fizz "), 100)...), uint16(2000), uint16(999), false)
	f.Add([]byte("abcq"), uint16(1), uint16(1), false)
	f.Add([]byte{}, uint16(4095), uint16(7), false)
	f.Add([]byte("dab abc cad bacb a dd"), uint16(0), uint16(0), true)
	f.Add(append([]byte("a"), bytes.Repeat([]byte("bcb cab "), 100)...), uint16(2000), uint16(999), true)
	f.Add([]byte("babac"), uint16(3), uint16(1), true)
	// A dot-star rule armed at the start of a short last block, and nowhere
	// before it: 140 nibble cycles or 150 and 100 byte cycles, so the block
	// is cut into three segments (and a filler lane) or two (and two), and
	// the later segments, guessed unarmed, miss at their seams.
	armed := func(filler, arm, rest string) []byte {
		return []byte(strings.Repeat(filler, block/len(filler)) + arm + strings.Repeat(rest, 200))
	}
	f.Add(armed("x", "q", "y"), uint16(70), uint16(0), false)
	f.Add(armed("bc", "a", "bc"), uint16(301), uint16(0), true)
	f.Add(armed("bc", "a", "bc"), uint16(200), uint16(0), true)
	f.Fuzz(func(t *testing.T, data []byte, extra, chunk uint16, bytes bool) {
		tf := nibbles
		if bytes {
			tf = byteStep
		}
		if len(data) == 0 {
			data = []byte{0}
		}
		input := make([]byte, block+int(extra)%block)
		for i := range input {
			input[i] = data[i%len(data)]
		}
		want, wantSt := sim.RunBatch(tf.ref, input, 0, nil)
		var got []sim.Report
		s := tf.NewSession(func(r sim.Report) { got = append(got, r) })
		step := int(chunk) % block
		if step == 0 {
			step = len(input)
		}
		for rest := input; len(rest) > 0; {
			k := min(step, len(rest))
			s.Feed(rest[:k])
			rest = rest[k:]
		}
		s.Flush()
		sim.SortReports(got)
		if !slices.Equal(got, want) {
			t.Fatalf("reports differ from the scalar engine's: %d vs %d", len(got), len(want))
		}
		if st := s.Stats(); st != wantSt {
			t.Fatalf("stats %+v, the scalar engine's %+v", st, wantSt)
		}
	})
}

// tier is a tiered form all on its DFA and the scalar engine over its
// automaton.
type tier struct {
	*dfa.Tiered
	ref *sim.Engine
}

// compileTier compiles src at 4 bits × dims, edits the automaton (when edit
// is not nil) and tiers it, failing unless the automaton has StartEven and
// StartOfData states and tiers all on one DFA.
func compileTier(f *testing.F, src *automata.NFA, dims int, edit func(*automata.NFA)) *tier {
	res, err := core.Compile(src, core.Config{TargetBits: 4, StrideDims: dims})
	if err != nil {
		f.Fatal(err)
	}
	n := res.NFA
	if edit != nil {
		edit(n)
	}
	starts := map[automata.StartKind]bool{}
	for _, s := range n.States {
		starts[s.Start] = true
	}
	if !starts[automata.StartEven] || !starts[automata.StartOfData] {
		f.Fatalf("the automaton has start kinds %v, want StartEven and StartOfData among them", starts)
	}
	tf, err := dfa.BuildTiered(n, dfa.TierOptions{MinStateShare: -1})
	if err != nil {
		f.Fatal(err)
	}
	if tf.DFA() == nil || tf.Plan().NFAStates != 0 {
		f.Fatalf("the rules tier to %d DFA and %d NFA states, want all on the DFA", tf.Plan().DFANFAStates, tf.Plan().NFAStates)
	}
	ref, err := sim.NewEngine(n)
	if err != nil {
		f.Fatal(err)
	}
	return &tier{tf, ref}
}
