// Package dfa implements the software DFA baseline and the hybrid DFA
// fast-path tier: subset-construction determinization of a homogeneous
// (Bits, Stride) NFA into a dense table-driven matcher over sub-symbols,
// plus a tier planner (see tier.go) that determinizes connected components
// under a blowup budget and falls back to the compiled bit-parallel NFA
// where determinization explodes.
//
// It exists to ground the paper's software comparison (spatial
// architectures vs CPU matching): the DFA matcher is the fastest simple
// software technique, its table is the memory-wall problem the paper opens
// with, and its worst-case state blowup on complex rule sets is the classic
// reason NFAs are preferred in spatial hardware. The hybrid tier exploits
// both regimes at once — low-ambiguity components run the O(1)-per-symbol
// table walk, ambiguous ones keep the bit-parallel engine.
//
// Construction is capped (MaxStates) because determinization can explode
// exponentially — hitting the cap is a faithful outcome, not a failure of
// the implementation, and is reported as ErrStateBlowup.
//
// Construction is parallelized with the simultaneous-DFA scheme of Jung &
// Burgstaller ("Efficient Construction of Simultaneous Deterministic Finite
// Automata on Multicores Using Rabin Fingerprints"): subset states are
// interned through a fingerprint-keyed table instead of a string-keyed map,
// and each BFS level's transition rows are computed by a worker pool. The
// level-synchronous discipline (compute rows in parallel, intern serially
// in (state, symbol) order) makes the resulting tables byte-identical for
// any worker count — the same determinism contract as the rest of the
// compile pipeline. Fingerprints are collision-checked by full-key
// comparison, so correctness never rests on the hash.
package dfa

import (
	"errors"
	"fmt"

	"impala/internal/automata"
	"impala/internal/bitvec"
	"impala/internal/obs"
	"impala/internal/par"
	"impala/internal/sim"
)

// ErrStateBlowup is returned when determinization exceeds the state cap.
var ErrStateBlowup = errors.New("dfa: state blowup exceeds cap")

// Options tunes construction.
type Options struct {
	// MaxStates caps the subset construction (default 1<<16).
	MaxStates int
	// Workers bounds the construction worker pool (<= 0 selects
	// GOMAXPROCS). The resulting table is byte-identical for any value.
	Workers int
	// Trace, when non-nil, records one span per worker batch per BFS level
	// under the name "dfa/determinize" (fingerprint-merge worker lanes).
	Trace *obs.Trace
}

// ReportEntry is one report fired upon entering a DFA state at a cycle
// boundary: the NFA state that reported, its code, and its sub-symbol
// offset within the stride chunk. BitPos is derived at runtime as
// (cycle*Stride + Offset) * Bits, so reports are bit-exact with the
// functional simulator's, including mid-chunk accepts on strided automata.
type ReportEntry struct {
	State  automata.StateID
	Code   int
	Offset int
}

// DFA is a dense table-driven matcher over sub-symbols. One transition is
// taken per sub-symbol (Stride transitions per cycle); states reached at
// cycle boundaries carry the report entries and the exact enabled/active
// counts of the NFA frontier they encode, so a DFA run reproduces the
// functional simulator's reports and statistics byte for byte.
type DFA struct {
	bits     int
	stride   int
	alphabet int // 1 << bits
	anyEven  bool

	// next[s*alphabet+v] is the successor of state s on sub-symbol v.
	next []int32
	// start is the initial state (anchored states enabled for cycle 0).
	start int32

	// Per-state metadata. phase is the sub-symbol position within the
	// stride cycle (0 = cycle boundary); parity is the parity of the next
	// cycle consumed from this state (meaningful only when anyEven);
	// reports/active/enabled are populated for phase-0 states only.
	phase   []uint8
	parity  []uint8
	reports [][]ReportEntry
	active  []int32
	enabled []int32
}

// NumStates returns the number of DFA states (including mid-cycle phase
// states on strided automata).
func (d *DFA) NumStates() int { return len(d.phase) }

// Bits returns the sub-symbol width.
func (d *DFA) Bits() int { return d.bits }

// Stride returns the sub-symbols consumed per cycle.
func (d *DFA) Stride() int { return d.stride }

// TableBytes returns the transition-table footprint — the quantity that
// blows caches and makes DFA matching memory-bound (the paper's opening
// observation).
func (d *DFA) TableBytes() int { return len(d.next) * 4 }

// maxBatch bounds one level-synchronous expansion round so the transient
// per-item row buffers stay modest even when a BFS level is huge.
const maxBatch = 2048

// builder holds the immutable precomputation and growing state tables of
// one subset construction.
type builder struct {
	n         *automata.NFA
	S, A      int
	nWords    int // words in an NFA-frontier bit vector
	tWords    int // words in a track bit vector
	anyEven   bool
	maxStates int

	always, anchored, even bitvec.Words

	// Tracks decompose each state's match set into its rects: track t is
	// the pair (trackState[t], rect), laid out grouped by state so state
	// i's tracks are trackStart[i]..trackStart[i+1]. maskTrack[p][v] is
	// the set of tracks whose rect accepts sub-symbol v at position p.
	trackState []int32
	trackStart []int32
	maskTrack  [][]bitvec.Words

	// Interned subset states. byFP maps a Rabin-style fingerprint to the
	// candidate ids bearing it; equality is always confirmed on the full
	// key, so fingerprint collisions cost a compare, never correctness.
	keys    []stateKey
	byFP    map[uint64][]int32
	next    []int32
	phase   []uint8
	parity  []uint8
	reports [][]ReportEntry
	active  []int32
	enabled []int32
}

// stateKey identifies a subset state: the bit vector is an NFA frontier for
// phase-0 states and a live-track set for mid-cycle states. The start flag
// distinguishes the initial state from a mid-stream empty frontier
// (anchored NFA states are enabled only from the former).
type stateKey struct {
	phase  uint8
	parity uint8
	start  bool
	w      bitvec.Words
}

func (b *builder) keyEqual(a, k stateKey) bool {
	if a.phase != k.phase || a.parity != k.parity || a.start != k.start || len(a.w) != len(k.w) {
		return false
	}
	for i := range a.w {
		if a.w[i] != k.w[i] {
			return false
		}
	}
	return true
}

// mix64 is the splitmix64 finalizer — the mixing step of the iterated
// fingerprint below.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// fingerprint folds a subset key into 64 bits, iterating a word-wise mix in
// the manner of a Rabin fingerprint over the key words (Jung &
// Burgstaller's interning scheme; we substitute a multiplicative mix for
// the GF(2) polynomial since collisions are resolved by full comparison).
func fingerprint(k stateKey) uint64 {
	h := 0x9E3779B97F4A7C15 ^ uint64(k.phase)<<16 ^ uint64(k.parity)<<8
	if k.start {
		h ^= 1
	}
	h = mix64(h)
	for _, w := range k.w {
		h = mix64(h ^ w)
	}
	return h
}

// Build determinizes a homogeneous automaton of any (bits, stride)
// geometry, including StartEven (even-cycle) start states — cycle parity is
// baked into the subset states. The construction runs one transition per
// sub-symbol: strided automata determinize through Stride phase levels per
// cycle, tracking which (state, rect) pairs remain satisfiable — the
// sub-symbol decoding the capsule hardware performs with one column read
// per dimension.
func Build(n *automata.NFA, opts Options) (*DFA, error) {
	if err := n.Validate(); err != nil {
		return nil, fmt.Errorf("dfa: invalid automaton: %w", err)
	}
	maxStates := opts.MaxStates
	if maxStates == 0 {
		maxStates = 1 << 16
	}
	workers := par.Workers(opts.Workers)

	b := newBuilder(n, maxStates)
	if err := b.run(workers, opts.Trace); err != nil {
		return nil, err
	}
	return &DFA{
		bits:     n.Bits,
		stride:   n.Stride,
		alphabet: b.A,
		anyEven:  b.anyEven,
		next:     b.next,
		start:    0,
		phase:    b.phase,
		parity:   b.parity,
		reports:  b.reports,
		active:   b.active,
		enabled:  b.enabled,
	}, nil
}

func newBuilder(n *automata.NFA, maxStates int) *builder {
	N := n.NumStates()
	b := &builder{
		n:         n,
		S:         n.Stride,
		A:         automata.DomainSize(n.Bits),
		nWords:    (N + 63) / 64,
		maxStates: maxStates,
		always:    bitvec.NewWords(N),
		anchored:  bitvec.NewWords(N),
		even:      bitvec.NewWords(N),
		byFP:      make(map[uint64][]int32),
	}
	for i := range n.States {
		switch n.States[i].Start {
		case automata.StartAllInput:
			b.always.Set(i)
		case automata.StartOfData:
			b.anchored.Set(i)
		case automata.StartEven:
			b.even.Set(i)
			b.anyEven = true
		}
	}

	// Flatten match sets into tracks, grouped by state.
	b.trackStart = make([]int32, N+1)
	var rects []automata.Rect
	for i := range n.States {
		b.trackStart[i] = int32(len(b.trackState))
		for _, r := range n.States[i].Match {
			if r.Empty() {
				continue
			}
			b.trackState = append(b.trackState, int32(i))
			rects = append(rects, r)
		}
	}
	b.trackStart[N] = int32(len(b.trackState))
	T := len(b.trackState)
	b.tWords = (T + 63) / 64

	b.maskTrack = make([][]bitvec.Words, b.S)
	for p := 0; p < b.S; p++ {
		b.maskTrack[p] = make([]bitvec.Words, b.A)
		for v := 0; v < b.A; v++ {
			b.maskTrack[p][v] = bitvec.NewWords(T)
		}
	}
	for t, r := range rects {
		for p := 0; p < b.S; p++ {
			for v := 0; v < b.A; v++ {
				if r[p].Has(byte(v)) {
					b.maskTrack[p][v].Set(t)
				}
			}
		}
	}
	return b
}

// intern returns the id of the subset key, creating it if new. New keys
// must already own their bit-vector storage. Creation also derives the
// phase-0 runtime metadata (report entries and the active count).
func (b *builder) intern(k stateKey, fp uint64) (int32, bool) {
	for _, id := range b.byFP[fp] {
		if b.keyEqual(b.keys[id], k) {
			return id, false
		}
	}
	id := int32(len(b.keys))
	b.keys = append(b.keys, k)
	b.byFP[fp] = append(b.byFP[fp], id)
	b.phase = append(b.phase, k.phase)
	b.parity = append(b.parity, k.parity)
	b.enabled = append(b.enabled, 0)
	if k.phase == 0 {
		b.active = append(b.active, int32(k.w.Count()))
		var entries []ReportEntry
		k.w.ForEach(func(i int) {
			s := &b.n.States[i]
			if s.Report {
				entries = append(entries, ReportEntry{State: automata.StateID(i), Code: s.ReportCode, Offset: s.ReportOffset})
			}
		})
		b.reports = append(b.reports, entries)
	} else {
		b.active = append(b.active, 0)
		b.reports = append(b.reports, nil)
	}
	return id, true
}

// rowScratch is one construction worker's reusable buffers.
type rowScratch struct {
	enabledBuf bitvec.Words // NFA frontier enabled for the next cycle
	initTracks bitvec.Words // tracks alive at phase 0
	stepBuf    bitvec.Words // tracks alive after one sub-symbol
	projBuf    bitvec.Words // projected NFA frontier at cycle end
}

// rowResult holds one expanded state's transition row: the distinct
// successor keys discovered (storage owned by the result) and, per
// sub-symbol value, the index of its successor within distinct.
type rowResult struct {
	distinct []stateKey
	fps      []uint64
	sym      []int32
}

// computeRow expands state id: it derives the enabled set (phase-0 states)
// or resumes the live-track set (mid-cycle states), then applies every
// sub-symbol value, deduplicating successors row-locally by fingerprint.
// It is pure per state, so rows may be computed in any order by any number
// of workers.
func (b *builder) computeRow(id int32, sc *rowScratch) rowResult {
	k := b.keys[id]
	res := rowResult{sym: make([]int32, b.A)}
	var src bitvec.Words
	curPhase := int(k.phase)
	if curPhase == 0 {
		// State-transition phase: enabled = always ∪ start classes due this
		// cycle ∪ successors of the encoded frontier.
		sc.enabledBuf.CopyFrom(b.always)
		if k.start {
			b.anchored.OrInto(sc.enabledBuf)
		}
		if b.anyEven && k.parity == 0 {
			b.even.OrInto(sc.enabledBuf)
		}
		k.w.ForEach(func(i int) {
			for _, t := range b.n.States[i].Out {
				sc.enabledBuf.Set(int(t))
			}
		})
		b.enabled[id] = int32(sc.enabledBuf.Count())
		sc.initTracks.ClearAll()
		sc.enabledBuf.ForEach(func(i int) {
			for t := b.trackStart[i]; t < b.trackStart[i+1]; t++ {
				sc.initTracks.Set(int(t))
			}
		})
		src = sc.initTracks
	} else {
		src = k.w
	}

	nextParity := k.parity
	if b.anyEven && curPhase+1 == b.S {
		nextParity = 1 - k.parity
	}
	for v := 0; v < b.A; v++ {
		src.AndInto(b.maskTrack[curPhase][v], sc.stepBuf)
		var succ stateKey
		var w bitvec.Words
		if curPhase+1 == b.S {
			// Cycle boundary: project live tracks back to the NFA frontier.
			sc.projBuf.ClearAll()
			sc.stepBuf.ForEach(func(t int) {
				sc.projBuf.Set(int(b.trackState[t]))
			})
			w = sc.projBuf
			succ = stateKey{phase: 0, parity: nextParity}
		} else {
			w = sc.stepBuf
			succ = stateKey{phase: uint8(curPhase + 1), parity: nextParity}
		}
		succ.w = w
		fp := fingerprint(succ)
		local := int32(-1)
		for li, lfp := range res.fps {
			if lfp == fp && b.keyEqual(res.distinct[li], succ) {
				local = int32(li)
				break
			}
		}
		if local < 0 {
			cp := make(bitvec.Words, len(w))
			copy(cp, w)
			succ.w = cp
			local = int32(len(res.distinct))
			res.distinct = append(res.distinct, succ)
			res.fps = append(res.fps, fp)
		}
		res.sym[v] = local
	}
	return res
}

// run performs the level-synchronous construction: each round expands a
// batch of pending states in parallel, then interns their successors
// serially in (state, symbol) order — the order a serial construction
// would discover them in, making the table independent of worker count.
func (b *builder) run(workers int, tr *obs.Trace) error {
	start := stateKey{start: true, w: make(bitvec.Words, b.nWords)}
	b.intern(start, fingerprint(start))

	scratch := make([]rowScratch, 0, workers)
	var scratchFree []int32
	for w := 0; w < workers; w++ {
		T := len(b.trackState)
		scratch = append(scratch, rowScratch{
			enabledBuf: make(bitvec.Words, b.nWords),
			initTracks: bitvec.NewWords(T),
			stepBuf:    bitvec.NewWords(T),
			projBuf:    make(bitvec.Words, b.nWords),
		})
		scratchFree = append(scratchFree, int32(w))
	}
	var scratchMu chan int32 // buffered channel as a tiny scratch free-list
	scratchMu = make(chan int32, workers)
	for _, i := range scratchFree {
		scratchMu <- i
	}

	for done := 0; done < len(b.keys); {
		hi := len(b.keys)
		if hi-done > maxBatch {
			hi = done + maxBatch
		}
		results := make([]rowResult, hi-done)
		par.TraceFor(tr, "dfa/determinize", workers, hi-done, func(i int) {
			si := <-scratchMu
			results[i] = b.computeRow(int32(done+i), &scratch[si])
			scratchMu <- si
		})
		for i := range results {
			res := &results[i]
			ids := make([]int32, len(res.distinct))
			for li := range ids {
				ids[li] = -1
			}
			rowBase := len(b.next)
			b.next = append(b.next, res.sym...)
			for v := 0; v < b.A; v++ {
				li := res.sym[v]
				if ids[li] < 0 {
					id, fresh := b.intern(res.distinct[li], res.fps[li])
					if fresh && len(b.keys) > b.maxStates {
						return fmt.Errorf("%w (cap %d)", ErrStateBlowup, b.maxStates)
					}
					ids[li] = id
				}
				b.next[rowBase+v] = ids[li]
			}
		}
		done = hi
	}
	return nil
}

// Core adapts a DFA to the sim.Core step interface so DFA tiers stream
// through the same Session machinery (chunked Feed, sub-symbol carry,
// padded Flush) as every other engine. It carries only the current state,
// so cores are cheap to create per stream; a Core is not safe for
// concurrent use, but any number may share one immutable DFA.
type Core struct {
	d   *DFA
	cur int32
}

// NewCore returns a fresh per-stream core over the DFA.
func (d *DFA) NewCore() *Core { return &Core{d: d, cur: d.start} }

// Geometry implements sim.Core.
func (c *Core) Geometry() (bits, stride int) { return c.d.bits, c.d.stride }

// ResetState implements sim.Core.
func (c *Core) ResetState() { c.cur = c.d.start }

// State returns the current DFA state (the stitch point for parallel
// segment composition).
func (c *Core) State() int32 { return c.cur }

// StepBlock implements sim.Core: per cycle, Stride table lookups, then the
// entered cycle-boundary state's report entries; the current state rides in
// a register across the block. The returned counts are the exact
// enabled/active counts of the NFA frontiers the DFA states encode, so
// Session statistics match the functional simulator's.
func (c *Core) StepBlock(subs []byte, t0 int, limitBits int, sink sim.ReportSink, _ sim.Tracer) (enabled, active int64, peak int) {
	d := c.d
	next, A, S := d.next, d.alphabet, d.stride
	s := c.cur
	for t := t0; len(subs) >= S; t, subs = t+1, subs[S:] {
		enabled += int64(d.enabled[s])
		for _, v := range subs[:S] {
			s = next[int(s)*A+int(v)]
		}
		if entries := d.reports[s]; len(entries) > 0 {
			base := t * S
			for _, e := range entries {
				bitPos := (base + e.Offset) * d.bits
				if limitBits < 0 || bitPos <= limitBits {
					sink(sim.Report{BitPos: bitPos, Code: e.Code, State: e.State})
				}
			}
		}
		na := int(d.active[s])
		active += int64(na)
		peak = max(peak, na)
	}
	c.cur = s
	return enabled, active, peak
}

// Run matches input through the streaming session (sink-based reporting —
// no per-match slice allocation beyond the result itself) and returns
// reports sorted by (BitPos, Code, State), byte-identical to the
// functional simulator's: one report per active reporting NFA state per
// position, deduplicated exactly as the frontier is (a state is either in
// the frontier or not — never twice).
func (d *DFA) Run(input []byte) []sim.Report {
	out, _ := sim.RunBatch(d.NewCore(), input, 0, nil)
	return out
}

// Scan matches input counting matches only — the throughput-benchmark
// loop, free of allocation. The count equals len(Run(input)), including
// the zero-padded final partial cycle's offset filtering.
func (d *DFA) Scan(input []byte) int {
	count := 0
	s := d.start
	next := d.next
	reports := d.reports
	A := d.alphabet
	// Mid-cycle states carry no report entries, so counting after every
	// sub-symbol only ever adds at cycle boundaries.
	switch d.bits {
	case 8:
		for _, c := range input {
			s = next[int(s)*A+int(c)]
			count += len(reports[s])
		}
	case 4:
		for _, c := range input {
			s = next[int(s)*A+int(c>>4)]
			count += len(reports[s])
			s = next[int(s)*A+int(c&0x0F)]
			count += len(reports[s])
		}
	case 2:
		for _, c := range input {
			s = next[int(s)*A+int(c>>6)]
			count += len(reports[s])
			s = next[int(s)*A+int((c>>4)&3)]
			count += len(reports[s])
			s = next[int(s)*A+int((c>>2)&3)]
			count += len(reports[s])
			s = next[int(s)*A+int(c&3)]
			count += len(reports[s])
		}
	}
	// Zero-padded final partial cycle, with reports filtered to the true
	// stream length — batch-identical semantics.
	subs := len(input) * (8 / d.bits)
	if rem := subs % d.stride; rem != 0 {
		for p := rem; p < d.stride; p++ {
			s = next[int(s)*A]
		}
		for _, e := range reports[s] {
			if e.Offset <= rem {
				count++
			}
		}
	}
	return count
}

// Raw is the serialization view of a DFA: every slice aliases the DFA's
// storage (callers must treat it as read-only). It exists so the artifact
// codec can seal and restore DFA tiers without the dfa package knowing the
// wire format.
type Raw struct {
	Bits, Stride int
	AnyEven      bool
	Start        int32
	Next         []int32
	Phase        []uint8
	Parity       []uint8
	Active       []int32
	Enabled      []int32
	Reports      [][]ReportEntry
}

// Raw returns the serialization view of the DFA.
func (d *DFA) Raw() *Raw {
	return &Raw{
		Bits: d.bits, Stride: d.stride, AnyEven: d.anyEven, Start: d.start,
		Next: d.next, Phase: d.phase, Parity: d.parity,
		Active: d.active, Enabled: d.enabled, Reports: d.reports,
	}
}

// FromRaw reassembles a DFA from its serialization view, validating
// structural invariants (table shape, successor range, start in range).
func FromRaw(r *Raw) (*DFA, error) {
	if r.Bits != 2 && r.Bits != 4 && r.Bits != 8 {
		return nil, fmt.Errorf("dfa: invalid bits %d", r.Bits)
	}
	if r.Stride < 1 {
		return nil, fmt.Errorf("dfa: invalid stride %d", r.Stride)
	}
	A := 1 << r.Bits
	ns := len(r.Phase)
	if len(r.Next) != ns*A {
		return nil, fmt.Errorf("dfa: table length %d != states %d x alphabet %d", len(r.Next), ns, A)
	}
	if len(r.Parity) != ns || len(r.Active) != ns || len(r.Enabled) != ns || len(r.Reports) != ns {
		return nil, fmt.Errorf("dfa: per-state metadata length mismatch")
	}
	if ns == 0 || int(r.Start) < 0 || int(r.Start) >= ns {
		return nil, fmt.Errorf("dfa: start state %d out of range [0,%d)", r.Start, ns)
	}
	for _, t := range r.Next {
		if int(t) < 0 || int(t) >= ns {
			return nil, fmt.Errorf("dfa: successor %d out of range [0,%d)", t, ns)
		}
	}
	return &DFA{
		bits: r.Bits, stride: r.Stride, alphabet: A, anyEven: r.AnyEven,
		next: r.Next, start: r.Start, phase: r.Phase, parity: r.Parity,
		active: r.Active, enabled: r.Enabled, reports: r.Reports,
	}, nil
}
