package sim_test

import (
	"math/rand"
	"slices"
	"testing"

	"impala/internal/automata"
	"impala/internal/sim"
)

// FuzzKernel builds a small random automaton at one of five geometries —
// 4-bit × 4, × 2 and × 1, whose cycles the kernel takes as two bytes, one
// byte and one nibble, 8-bit × 2 and × 1 — and holds the compiled kernel's reports
// and Stats, fed in random chunks, to the scalar engine's. Its states mix
// every start kind, report offsets and the odd match set that is no product
// (a residual state). No state accepts the zero sub-symbol, so the run of
// zero bytes the input carries, longer than a session block, is quiescent
// for the kernel to skip; the fuzzed bytes, made non-zero, lie before it and
// across the block seam after it, where the rules match again.
func FuzzKernel(f *testing.F) {
	f.Add(uint64(1), uint8(0), []byte("abcabcabd"), uint16(7))
	f.Add(uint64(2), uint8(1), []byte("needle in a haystack"), uint16(2047))
	f.Add(uint64(3), uint8(2), []byte{0xff, 0x12, 0x34}, uint16(1))
	f.Add(uint64(4), uint8(3), []byte("zz"), uint16(4099))
	f.Add(uint64(5), uint8(0), []byte("\x01\x02\x03\x04\x05"), uint16(3))
	// The kernel's start images: even starts, so that the odd and the even
	// vector differ, at 4-bit × 4, × 2 and 8-bit × 1; plain ones at 8-bit ×
	// 1; and residual start states, which no image holds, at 4-bit × 4, × 2
	// and 8-bit × 2 (the start vector is swept).
	f.Add(uint64(3), uint8(0), []byte("\x21\x43\x65\x87\xa9\xcb"), uint16(5))
	f.Add(uint64(1), uint8(1), []byte("abcdabcdab"), uint16(11))
	f.Add(uint64(1), uint8(4), []byte("the quick brown fox"), uint16(9))
	f.Add(uint64(4), uint8(4), []byte("\x12\x34\x12\x34\x12"), uint16(2))
	f.Add(uint64(2), uint8(0), []byte("\x33\x33\x13\x31"), uint16(6))
	f.Add(uint64(9), uint8(1), []byte("\x11\x22\x33\x11"), uint16(4))
	f.Add(uint64(5), uint8(3), []byte("residual start"), uint16(13))
	geometries := [][2]int{{4, 4}, {4, 2}, {4, 1}, {8, 2}, {8, 1}}
	f.Fuzz(func(t *testing.T, seed uint64, geo uint8, data []byte, cut uint16) {
		if len(data) == 0 || len(data) > 256 {
			return
		}
		g := geometries[int(geo)%len(geometries)]
		r := rand.New(rand.NewSource(int64(seed)))
		n := randomNFA(r, g[0], g[1])
		c, err := sim.Compile(n)
		if err != nil {
			t.Fatal(err)
		}
		e, err := sim.NewEngine(n)
		if err != nil {
			t.Fatal(err)
		}

		// data, zeros past the next block, then data from just before the
		// seam of the block after that to past it, then data again.
		word := make([]byte, len(data))
		for i, b := range data {
			word[i] = b | 0x11
		}
		input := slices.Clone(word)
		gap := 2*2048 - len(input) - 64 + r.Intn(64)
		input = append(input, make([]byte, max(gap, 2048+1))...)
		for len(input) < 2*2048+64 || len(input)%2048 < 64 {
			input = append(input, word...)
		}
		input = append(input, word...)

		want, wantStats := e.Run(input, nil)
		var got []sim.Report
		s := c.NewSession(func(rp sim.Report) { got = append(got, rp) })
		for rest := input; len(rest) > 0; {
			k := min(len(rest), 1+r.Intn(int(cut)%5000+1))
			s.Feed(rest[:k])
			rest = rest[k:]
		}
		s.Flush()
		sim.SortReports(got)
		if !slices.Equal(got, want) {
			t.Fatalf("%d-bit × %d: the kernel reported %v, the scalar engine %v", g[0], g[1], got, want)
		}
		if st := s.Stats(); st != wantStats {
			t.Fatalf("%d-bit × %d: the kernel's stats %+v, the scalar engine's %+v", g[0], g[1], st, wantStats)
		}
	})
}

// randomNFA returns a valid automaton of 2 to 12 states at the geometry whose
// rects never hold the zero sub-symbol: every start kind, reports at every
// offset, and now and then a state of two rects.
func randomNFA(r *rand.Rand, bits, stride int) *automata.NFA {
	n := automata.New(bits, stride)
	dom := automata.DomainSize(bits)
	rect := func() automata.Rect {
		rt := make(automata.Rect, stride)
		for p := range rt {
			for rt[p].Empty() {
				for v := 1; v < dom; v++ {
					if r.Intn(2) == 0 {
						rt[p] = rt[p].Add(byte(v))
					}
				}
			}
		}
		return rt
	}
	states := 2 + r.Intn(11)
	for range states {
		st := automata.State{Match: automata.MatchSet{rect()}, Start: automata.StartKind(r.Intn(4))}
		if r.Intn(2) == 0 {
			st.Start = automata.StartNone
		}
		if r.Intn(6) == 0 {
			st.Match = append(st.Match, rect())
		}
		if r.Intn(3) == 0 {
			st.Report, st.ReportCode, st.ReportOffset = true, r.Intn(4), 1+r.Intn(stride)
		}
		n.AddState(st)
	}
	for i := range states {
		for range 1 + r.Intn(3) {
			n.AddEdge(automata.StateID(i), automata.StateID(r.Intn(states)))
		}
	}
	return n
}
