package dfa_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"impala/internal/automata"
	"impala/internal/bitvec"
	"impala/internal/dfa"
	"impala/internal/sim"
	"impala/internal/sim/simtest"
)

// randomBlock draws a small automaton of the given geometry with every start
// kind (StartEven included), multi-rect match sets and report offsets
// anywhere in the stride chunk.
func randomBlock(r *rand.Rand, bits, stride int) *automata.NFA {
	n := automata.New(bits, stride)
	dom := automata.DomainSize(bits)
	states := 2 + r.Intn(5)
	for i := 0; i < states; i++ {
		var ms automata.MatchSet
		for k := 0; k < 1+r.Intn(2); k++ {
			rect := make(automata.Rect, stride)
			for d := range rect {
				var set bitvec.ByteSet
				for v := 0; v < 1+r.Intn(3); v++ {
					set = set.Add(byte(r.Intn(min(dom, 4))))
				}
				rect[d] = set
			}
			ms = ms.Add(rect)
		}
		kind := []automata.StartKind{automata.StartNone, automata.StartNone, automata.StartAllInput, automata.StartOfData, automata.StartEven}[r.Intn(5)]
		if i == 0 {
			kind = []automata.StartKind{automata.StartAllInput, automata.StartEven}[r.Intn(2)]
		}
		n.AddState(automata.State{
			Match: ms, Start: kind,
			Report: r.Intn(2) == 0, ReportCode: r.Intn(100), ReportOffset: 1 + r.Intn(stride),
		})
	}
	for k := 0; k < 2*states; k++ {
		n.AddEdge(automata.StateID(r.Intn(states)), automata.StateID(r.Intn(states)))
	}
	n.DedupEdges()
	return n
}

// The walker differential: K DFAs walked as one lane are the scalar engine
// on the union automaton — reports, Stats (PeakActive included) and, across
// block edges and any chunking, the very sequence of sink calls — for odd
// and even K, on geometries whose streams end in a zero-padded cycle.
func TestWalkerDifferentialFuzz(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for _, geo := range [][2]int{{4, 4}, {4, 1}, {2, 4}, {8, 2}} {
		for _, k := range []int{1, 2, 3, 5} {
			bits, stride := geo[0], geo[1]
			union := automata.New(bits, stride)
			var ds []*dfa.DFA
			var origs [][]automata.StateID
			for len(ds) < k {
				block := randomBlock(r, bits, stride)
				d, err := dfa.Build(block, dfa.Options{MaxStates: 4096})
				if err != nil {
					continue // a block that blows up is redrawn
				}
				off := automata.StateID(union.NumStates())
				var orig []automata.StateID
				for i := range block.States {
					s := block.States[i]
					s.Out = nil
					orig = append(orig, union.AddState(s))
				}
				for i := range block.States {
					for _, to := range block.States[i].Out {
						union.AddEdge(off+automata.StateID(i), off+to)
					}
				}
				ds, origs = append(ds, d), append(origs, orig)
			}
			form := fmt.Sprintf("%d-bit stride %d, %d DFAs", bits, stride, k)
			walker := sim.NewLockstep(bits, stride, []sim.Lane{dfa.Lane(ds, origs)})
			open := func(sink sim.ReportSink) simtest.Stream { return walker.NewSession(sink) }
			scalar, err := sim.NewEngine(union)
			if err != nil {
				t.Fatal(err)
			}

			input := make([]byte, 2*simtest.FeedBlock()+101)
			for i := range input {
				// Sub-symbols mostly inside the blocks' 0..3 alphabet, so
				// walks leave the dead state often.
				input[i] = byte(r.Intn(256)) & []byte{0x33, 0x33, 0x11, 0xff}[r.Intn(4)]
			}
			want, wantStats := scalar.Run(input, nil)
			if len(want) == 0 {
				t.Fatalf("%s: the stream reports nothing", form)
			}
			simtest.BlockEdges(t, form, union.BitsPerCycle(), open, input, want, wantStats)

			var whole []sim.Report
			s := walker.NewSession(func(rep sim.Report) { whole = append(whole, rep) })
			s.Feed(input)
			s.Flush()
			for trial := 0; trial < 6; trial++ {
				var calls []sim.Report
				s := walker.NewSession(func(rep sim.Report) { calls = append(calls, rep) })
				for rest := input; len(rest) > 0; {
					cut := min(len(rest), 1+r.Intn(3*simtest.FeedBlock()/2))
					s.Feed(rest[:cut])
					rest = rest[cut:]
				}
				s.Flush()
				if !slices.Equal(calls, whole) {
					t.Fatalf("%s, random chunking %d: %d sink calls, the whole stream made %d (or another sequence)", form, trial, len(calls), len(whole))
				}
				if got := s.Stats(); got != wantStats {
					t.Fatalf("%s, random chunking %d: stats %+v, scalar engine %+v", form, trial, got, wantStats)
				}
			}
		}
	}
}
