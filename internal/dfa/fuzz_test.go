package dfa_test

import (
	"bytes"
	"slices"
	"testing"

	"impala/internal/automata"
	"impala/internal/core"
	"impala/internal/dfa"
	"impala/internal/regexc"
	"impala/internal/sim"
	"impala/internal/sim/simtest"
)

// FuzzDFAWalk runs a small tier DFA — a dot-star rule, an anchored one and,
// at 4 bits a cycle, StartEven states — over an input of at least one
// session block fed in chunks, and holds its reports and statistics to the
// scalar engine's: whatever the walker guessed at a seam, its output is the
// serial walk's. The input is data repeated to 2,048 bytes and up to 4,095
// more; chunk > 0 feeds it in pieces of chunk%4,096 bytes.
func FuzzDFAWalk(f *testing.F) {
	src := regexc.MustCompile([]regexc.Rule{
		{Pattern: "q.*z", Code: 1}, {Pattern: "^head", Code: 2}, {Pattern: "ab[cd]", Code: 3}, {Pattern: "e+dge", Code: 4},
	})
	res, err := core.Compile(src, core.Config{TargetBits: 4, StrideDims: 1})
	if err != nil {
		f.Fatal(err)
	}
	n := res.NFA
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
	block := simtest.FeedBlock()

	f.Add([]byte("head quiet zebra fizz abd eedge "), uint16(0), uint16(0))
	f.Add(append([]byte("q"), bytes.Repeat([]byte("zebra fizz "), 100)...), uint16(2000), uint16(999))
	f.Add([]byte("abcq"), uint16(1), uint16(1))
	f.Add([]byte{}, uint16(4095), uint16(7))
	f.Fuzz(func(t *testing.T, data []byte, extra, chunk uint16) {
		if len(data) == 0 {
			data = []byte{0}
		}
		input := make([]byte, block+int(extra)%block)
		for i := range input {
			input[i] = data[i%len(data)]
		}
		want, wantSt := sim.RunBatch(ref, input, 0, nil)
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
