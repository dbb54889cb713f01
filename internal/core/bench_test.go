package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"impala/internal/automata"
	"impala/internal/bitvec"
	"impala/internal/espresso"
	"impala/internal/sim"
	"impala/internal/workload"
)

var benchWorkers = []int{1, 2, 8}

// BenchmarkCompile times the full V-TeSS pipeline at the Impala 4-stride
// design point over a large synthetic automaton, across worker counts plus
// the uncached baseline (the cover cache is the dominant single-core win).
func BenchmarkCompile(b *testing.B) {
	n := randNFA(rand.New(rand.NewSource(11)), 600)
	for _, w := range benchWorkers {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Compile(n, Config{TargetBits: 4, StrideDims: 4, Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Compile(n, Config{TargetBits: 4, StrideDims: 4, Workers: 1, DisableCache: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRefine isolates the Espresso refinement stage (the heaviest
// per-state work of the pipeline) with a fresh cover cache per iteration.
func BenchmarkRefine(b *testing.B) {
	n := randNFA(rand.New(rand.NewSource(12)), 600)
	st, err := Stride(n, 4, 4, espresso.Options{}, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range benchWorkers {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := st.Clone()
				esp := espresso.Options{Cache: espresso.NewCoverCache()}
				if _, err := Refine(c, esp, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// liveWords is a sim.Tracer counting cycles, the non-zero words of the
// enable vector — what a cycle of the word-sparse kernel pays for when it
// sweeps its start words: a tracer turns the start lookup off, so the count
// is the swept cycle's (swept-words/cycle), not the looked-up one's — and the
// quiescent cycles, the image-0 steps of the kernel's runs: past the first,
// after a cycle that left nothing active, and leaving nothing active
// themselves (no start state matched their class tuple). It also counts the active states the
// start vector activated, and the cycles whose successor OR the kernel skips
// when it looks its start vector up (sim.Compiled): past the second, after
// a cycle whose active states were all start states and have successors,
// none of which accepts the cycle's byte at some position. And it recounts
// the cycles the kernel steps by image number (image-run-share): past the
// first, after a cycle whose active states were all start states (none, when
// it was the first), whose successors, if any, reject the cycle's bytes at
// some position, and activating only start states, none of which reports.
type liveWords struct {
	words, cycles, quiescent int
	was                      bool // the previous cycle left a state active

	n         *automata.NFA
	starts    func(t int) bitvec.Words
	subs      []byte // the input's sub-symbols, zero-padded to whole cycles
	bytes     int    // bytes a cycle
	prev      bitvec.Words
	started   bool // every state the previous cycle left active was a start state
	reporting bitvec.Words

	active, hit, succSkipped, imageRuns int
}

// newLiveWords returns a liveWords for a run over input of e, an engine of
// n, whose cycles are whole bytes.
func newLiveWords(n *automata.NFA, e *sim.CompiledEngine, input []byte) *liveWords {
	l := &liveWords{n: n, starts: e.Starts, bytes: n.Stride * n.Bits / 8, reporting: bitvec.NewWords(n.NumStates())}
	for i := range n.States {
		if n.States[i].Report {
			l.reporting.Set(i)
		}
	}
	l.subs = sim.AppendSubSymbols(nil, n.Bits, input)
	for len(l.subs)%n.Stride != 0 {
		l.subs = append(l.subs, 0)
	}
	return l
}

func (l *liveWords) OnCycle(t int, enabled, active bitvec.Words) {
	for _, x := range enabled {
		if x != 0 {
			l.words++
		}
	}
	is := active.Any()
	if t > 0 && !l.was && !is {
		l.quiescent++
	}
	l.was = is
	l.cycles++

	starts := l.starts(t)
	rejected := t > 0 && l.started && !l.successorsAccept(t)
	if t >= 2 && rejected && l.prev.Any() {
		l.succSkipped++
	}
	only, reports := true, false
	for w, x := range active {
		l.active += bits.OnesCount64(x)
		l.hit += bits.OnesCount64(x & starts[w])
		only = only && x&^starts[w] == 0
		reports = reports || x&l.reporting[w] != 0
	}
	if rejected && (t > 1 || !l.prev.Any()) && only && !reports {
		l.imageRuns++
	}
	l.started = only
	l.prev = append(l.prev[:0], active...)
}

// successorsAccept reports whether the previous cycle's active states have
// successors and, at every byte of cycle t, one of them accepts it.
func (l *liveWords) successorsAccept(t int) bool {
	S := l.n.Stride
	syms := l.subs[t*S:][:S]
	per := S / l.bytes // sub-symbols a byte
	any := false
	for q := 0; q < l.bytes; q++ {
		ok := false
		l.prev.ForEach(func(i int) {
			for _, s := range l.n.States[i].Out {
				any = true
				ok = ok || l.accepts(int(s), syms, q*per, (q+1)*per)
			}
		})
		if !ok {
			return false
		}
	}
	return any
}

// accepts reports whether state i accepts syms at positions [lo, hi), each
// against its match set's projection there (the served automata have no
// residual state, whose projection would be too wide).
func (l *liveWords) accepts(i int, syms []byte, lo, hi int) bool {
	for p := lo; p < hi; p++ {
		ok := false
		for _, r := range l.n.States[i].Match {
			ok = ok || !r.Empty() && r[p].Has(syms[p])
		}
		if !ok {
			return false
		}
	}
	return true
}

// witnesses returns up to 64 byte strings that each drive n, an 8-bit
// automaton, from an all-input start to a report — the shortest paths, each
// state rendered to the first byte it matches — as the serving benchmark
// plants them.
func witnesses(n *automata.NFA) [][]byte {
	parent := make([]int, len(n.States))
	var queue []int
	for i := range n.States {
		parent[i] = -2
		if n.States[i].Start == automata.StartAllInput {
			parent[i] = -1
			queue = append(queue, i)
		}
	}
	var out [][]byte
	for ; len(queue) > 0 && len(out) < 64; queue = queue[1:] {
		id := queue[0]
		if n.States[id].Report {
			var w []byte
			for at := id; at >= 0; at = parent[at] {
				w = append(w, n.States[at].Match[0][0].Values()[0])
			}
			slices.Reverse(w)
			out = append(out, w)
		}
		for _, next := range n.States[id].Out {
			if parent[next] == -2 {
				parent[next] = id
				queue = append(queue, int(next))
			}
		}
	}
	return out
}

// plant overwrites input with one witness every spacing bytes, dealt
// round-robin, each placed at random within the first half of its slot.
func plant(input []byte, wit [][]byte, spacing int, r *rand.Rand) {
	for slot, next := 0, 0; slot < len(input); next++ {
		w := wit[next%len(wit)]
		off := slot + r.Intn(spacing/2)
		if off+len(w) > len(input) {
			return
		}
		copy(input[off:], w)
		slot += (off + len(w) - slot + spacing - 1) / spacing * spacing
	}
}

// BenchmarkServedKernels times the bit-parallel kernel alone on the three
// automata the serving benchmark's NFA workloads run (snort_nfa_match,
// bro_small_match, exact_dense_stream: each suite at scale 0.02, compiled at
// the 4-bit × 4-stride design point) over one request body's worth of input —
// the kernel number behind a served scan_ns_per_byte, without the HTTP
// harness around it. The "+witnesses" rows plant a matching string every
// spacing bytes, as the served bodies carry them (ExactMatch every 64 B,
// Snort every 16 KiB): without them the generated input leaves ExactMatch's
// kernel almost idle. Beside ns/cycle each row reports the share of cycles
// that are quiescent (skipped-share), the share of active states the start vector
// activated (started-share: what its images hold), the share of cycles
// whose successor OR it skips (succ-skipped-share) and the share it steps by
// image number, touching no state vector (image-run-share).
func BenchmarkServedKernels(b *testing.B) {
	for _, tc := range []struct {
		suite          string
		bytes, spacing int
	}{
		{"Snort", 64 << 10, 0},
		{"Bro217", 1 << 10, 0},
		{"ExactMatch", 64 << 10, 0},
		{"Snort", 64 << 10, 16 << 10},
		{"ExactMatch", 64 << 10, 64},
	} {
		name := tc.suite
		if tc.spacing > 0 {
			name += "+witnesses"
		}
		b.Run(name, func(b *testing.B) {
			bench, ok := workload.Get(tc.suite)
			if !ok {
				b.Fatalf("no %s generator in the workload suite", tc.suite)
			}
			src, err := bench.Generate(0.02, 1)
			if err != nil {
				b.Fatal(err)
			}
			res, err := Compile(src, Config{TargetBits: 4, StrideDims: 4})
			if err != nil {
				b.Fatal(err)
			}
			c, err := sim.Compile(res.NFA)
			if err != nil {
				b.Fatal(err)
			}
			input := workload.Input(src, tc.bytes, 1)
			if tc.spacing > 0 {
				plant(input, witnesses(src), tc.spacing, rand.New(rand.NewSource(1)))
			}
			if c.ResidualStates() != 0 {
				b.Fatalf("%s has %d residual states", tc.suite, c.ResidualStates())
			}
			e := c.NewEngine()
			live := newLiveWords(res.NFA, e, input)
			e.Run(input, live)
			c.Run(input) // a pooled engine with its session, as a served request finds it
			b.SetBytes(int64(len(input)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Run(input)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*live.cycles), "ns/cycle")
			b.ReportMetric(float64(live.words)/float64(live.cycles), "swept-words/cycle")
			b.ReportMetric(float64(live.quiescent)/float64(live.cycles), "skipped-share")
			b.ReportMetric(float64(live.hit)/float64(max(live.active, 1)), "started-share")
			b.ReportMetric(float64(live.succSkipped)/float64(live.cycles), "succ-skipped-share")
			b.ReportMetric(float64(live.imageRuns)/float64(live.cycles), "image-run-share")
		})
	}
}
