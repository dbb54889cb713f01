package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"impala/internal/automata"
	"impala/internal/bitvec"
)

// Micro-benchmarks for the two engines over low- and high-activity
// workloads. Low activity (sparse literals over random input) is the
// NIDS-style regime where few states are active per cycle; high activity
// (a wide-range mesh where most states match most symbols) is the
// Hamming/Levenshtein-style regime that dominates the scalar engine's
// per-state dispatch cost and where the bit-parallel engine's word-level
// phases pay off most.

func benchInput(n int) []byte {
	r := rand.New(rand.NewSource(17))
	input := make([]byte, n)
	for i := range input {
		input[i] = byte(r.Intn(256))
	}
	return input
}

// lowActivityNFA: 64 eight-byte random literals, all-input start. On random
// input almost no state past the first row ever activates.
func lowActivityNFA() *automata.NFA {
	r := rand.New(rand.NewSource(5))
	n := automata.New(8, 1)
	buf := make([]byte, 8)
	for k := 0; k < 64; k++ {
		for i := range buf {
			buf[i] = byte('a' + r.Intn(26))
		}
		n.AddLiteral(string(buf), automata.StartAllInput, k)
	}
	return n
}

// highActivityNFA: a 512-state mesh of chained wide-range states (each
// accepts 3/4 of the alphabet, with cross edges), so hundreds of states are
// enabled and active every cycle.
func highActivityNFA() *automata.NFA {
	n := automata.New(8, 1)
	const states = 512
	wide := bitvec.ByteRange(0, 191)
	prev := automata.StateID(-1)
	for i := 0; i < states; i++ {
		kind := automata.StartNone
		if i%16 == 0 {
			kind = automata.StartAllInput
		}
		id := n.AddState(automata.State{
			Match:        automata.MatchSet{automata.Rect{wide}},
			Start:        kind,
			Report:       i%64 == 63,
			ReportCode:   i,
			ReportOffset: 1,
		})
		if prev >= 0 {
			n.AddEdge(prev, id)
			if i >= 8 {
				n.AddEdge(id-8, id)
			}
		}
		prev = id
	}
	return n
}

// sparseActivityNFA is Snort-shaped, at the paper's design point (4-bit
// sub-symbols, stride 4): 150 sixteen-state rule chains = 2,400 states = 38
// words, with every all-input head numbered first so the starts cluster in
// three words, and a head accepting 1 chunk in 128 so that about two states
// are active per cycle. Every tenth chain fans its second state out to the
// third state of thirty other chains — the hub rows, spanning most of the
// vector, that a .* gives the real rule set.
func sparseActivityNFA() *automata.NFA {
	const chains, depth = 150, 16
	r := rand.New(rand.NewSource(9))
	n := automata.New(4, 4)
	dom := automata.Domain(4)
	nibbles := func(k int) bitvec.ByteSet {
		var set bitvec.ByteSet
		for _, v := range r.Perm(16)[:k] {
			set = set.Add(byte(v))
		}
		return set
	}
	state := func(match automata.Rect, start automata.StartKind, report bool, code int) automata.StateID {
		return n.AddState(automata.State{
			Match: automata.MatchSet{match}, Start: start,
			Report: report, ReportCode: code, ReportOffset: 4,
		})
	}
	for k := 0; k < chains; k++ {
		state(automata.Rect{nibbles(2), nibbles(1), dom, dom}, automata.StartAllInput, false, 0)
	}
	at := func(k, d int) automata.StateID { // state d >= 1 of chain k
		return automata.StateID(chains + k*(depth-1) + d - 1)
	}
	for k := 0; k < chains; k++ {
		prev := automata.StateID(k)
		for d := 1; d < depth; d++ {
			id := state(automata.Rect{nibbles(8), nibbles(8), dom, dom}, automata.StartNone, d == depth-1, k)
			n.AddEdge(prev, id)
			prev = id
		}
	}
	for k := 0; k < chains; k += 10 {
		for _, to := range r.Perm(chains)[:30] {
			n.AddEdge(at(k, 1), at(to, 2))
		}
	}
	n.DedupEdges()
	return n
}

func benchWorkloads(b *testing.B) map[string]*automata.NFA {
	b.Helper()
	return map[string]*automata.NFA{
		"low":    lowActivityNFA(),
		"high":   highActivityNFA(),
		"sparse": sparseActivityNFA(),
	}
}

func BenchmarkEngineScalar(b *testing.B) {
	input := benchInput(64 * 1024)
	for name, n := range benchWorkloads(b) {
		b.Run(name, func(b *testing.B) {
			e, err := NewEngine(n)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(input)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Run(input, nil)
			}
		})
	}
}

// sweptWords is a Tracer counting the non-zero words of the enable vector:
// what a cycle of the word-sparse kernel pays for when it sweeps its start
// words. A tracer turns the start lookup off, so the count is that of the
// swept cycle, not of the one an untraced kernel looks up.
type sweptWords struct{ words, cycles int }

func (l *sweptWords) OnCycle(_ int, enabled, _ bitvec.Words) {
	for _, x := range enabled {
		if x != 0 {
			l.words++
		}
	}
	l.cycles++
}

// perCycle runs input once on s, untimed, and returns the swept words per
// cycle.
func (l *sweptWords) perCycle(s *Session, input []byte) float64 {
	s.runBatch(nil, input, 0, l)
	return float64(l.words) / float64(l.cycles)
}

func BenchmarkEngineCompiled(b *testing.B) {
	input := benchInput(64 * 1024)
	for name, n := range benchWorkloads(b) {
		b.Run(name, func(b *testing.B) {
			c, err := Compile(n)
			if err != nil {
				b.Fatal(err)
			}
			// A pooled run's session, held here so that no sync.Pool drop
			// at a GC is timed.
			s := NewSession(c.NewEngine(), nil)
			swept := new(sweptWords).perCycle(s, input)
			b.SetBytes(int64(len(input)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.runBatch(nil, input, 0, nil)
			}
			b.ReportMetric(swept, "swept-words/cycle")
		})
	}
}

// BenchmarkSessionFeed measures steady-state streaming over the compiled
// core at several chunk sizes. The headline number is allocs/op: once
// warmed, Feed must not allocate (scratch buffers are session-owned, the
// sink is invoked in place).
func BenchmarkSessionFeed(b *testing.B) {
	input := benchInput(64 * 1024)
	for name, n := range benchWorkloads(b) {
		for _, chunkSize := range []int{64, 1024, 16 * 1024} {
			b.Run(fmt.Sprintf("%s/chunk%d", name, chunkSize), func(b *testing.B) {
				c, err := Compile(n)
				if err != nil {
					b.Fatal(err)
				}
				swept := new(sweptWords).perCycle(NewSession(c.NewEngine(), nil), input)
				matches := 0
				s := c.NewSession(func(Report) { matches++ })
				s.Feed(input[:chunkSize]) // warm scratch buffers
				b.SetBytes(int64(len(input)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for off := 0; off < len(input); off += chunkSize {
						end := off + chunkSize
						if end > len(input) {
							end = len(input)
						}
						s.Feed(input[off:end])
					}
				}
				b.ReportMetric(swept, "swept-words/cycle")
			})
		}
	}
}
