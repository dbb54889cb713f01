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
	"math"
	"math/bits"
	"slices"

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

// MaxPhaseStates is the most states one stride phase can hold: a table entry
// is a uint16 index within the next phase. A construction that outgrows it
// is ErrStateBlowup whatever Options.MaxStates says.
const MaxPhaseStates = 1 << 16

// CycleState is what a cycle-boundary state carries beyond its transition
// row: the exact enabled/active counts of the NFA frontier it encodes, its
// report entries (Entries[Rep : Rep+NRep] of the DFA's flat entry array) and
// the parity of the next cycle consumed from it (meaningful only for
// StartEven automata). Mid-cycle states carry none of this and have no record.
type CycleState struct {
	Enabled, Active int32
	Rep             uint32
	NRep            uint16
	Parity          uint8
}

// DFA is a dense table-driven matcher over sub-symbols. One transition is
// taken per sub-symbol — or per byte, when the DFA steps bytes — a cycle's
// worth per cycle; states reached at cycle boundaries carry the report
// entries and the exact enabled/active counts of the NFA frontier they
// encode, so a DFA run reproduces the functional simulator's reports and
// statistics byte for byte.
//
// States are numbered per stride phase (the sub-symbol position within the
// cycle, 0 = cycle boundary) and each phase has its own table: the walk reads
// one short column per stride dimension a cycle, as the capsule reads one
// column per dimension, and a successor only has to name a state of the next
// phase — 16 bits. A DFA that steps bytes (Classes) keeps the phases a byte
// starts at only: its table of such a phase maps a state and the class of
// the next byte to the state two (or four) sub-symbols on, and the phases
// inside a byte have no states at all.
type DFA struct {
	bits    int // sub-symbol width: a row holds 1<<bits entries
	stride  int
	step    int // sub-symbols a lookup takes: 1, or 8/bits for a DFA that steps bytes
	anyEven bool
	// cl is the partition of the automaton the DFA was built from, or of
	// the automaton it is a sub-automaton of: its byte classes index the
	// rows of a DFA that steps bytes.
	cl *Classes

	// tab[q][i<<bits|v] is the successor of state i of phase q*step on
	// sub-symbol v (step 1) or on a byte of class v: an index within phase
	// (q+1)*step mod stride.
	tab [][]uint16
	// start is the initial state, of phase 0 (anchored states enabled for
	// cycle 0).
	start uint16

	// cyc[i] is the record of cycle-boundary state i; its report entries lie
	// in entries.
	cyc     []CycleState
	entries []ReportEntry
}

// NumStates returns the number of DFA states (including mid-cycle phase
// states on strided automata, but none inside a byte on a DFA that steps
// bytes).
func (d *DFA) NumStates() int { return d.Raw().NumStates() }

// Bits returns the sub-symbol width.
func (d *DFA) Bits() int { return d.bits }

// Stride returns the sub-symbols consumed per cycle.
func (d *DFA) Stride() int { return d.stride }

// Step returns the sub-symbols one lookup takes: 8/bits when the DFA steps
// bytes, 1 when it steps sub-symbols.
func (d *DFA) Step() int { return d.step }

// TableBytes returns the transition-table footprint — the quantity that
// blows caches and makes DFA matching memory-bound (the paper's opening
// observation).
func (d *DFA) TableBytes() int {
	n := 0
	for _, t := range d.tab {
		n += len(t) * 2
	}
	return n
}

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
	// i's tracks are trackStart[i]..trackStart[i+1]. cl is the automaton's
	// sub-symbol partition, and maskTrack[p][c] the set of tracks whose rect
	// accepts the sub-symbols of class c at position p.
	trackState []int32
	trackStart []int32
	cl         *Classes
	maskTrack  [][]bitvec.Words

	// Interned subset states. byFP maps a Rabin-style fingerprint to the
	// last id interned bearing it, and fpPrev[id] to the one before id
	// (-1 ends the chain); equality is always confirmed on the full key, so
	// fingerprint collisions cost a compare, never correctness.
	keys   []stateKey
	byFP   map[uint64]int32
	fpPrev []int32
	// next is the working table over construction ids: next[id*A+v]. seal
	// renumbers it into the per-phase tables.
	next []int32
	// idx[id] is the state's index within its phase, counts[p] the states
	// interned in phase p so far; cyc and entries grow with phase 0.
	idx     []uint16
	counts  []int
	cyc     []CycleState
	entries []ReportEntry
	// wide records a cycle-boundary state with more report entries than a
	// CycleState can count.
	wide bool
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
// per dimension. The DFA steps bytes when the automaton's classes allow it
// (ClassesOf).
func Build(n *automata.NFA, opts Options) (*DFA, error) {
	b, err := determinize(n, opts)
	if err != nil {
		return nil, err
	}
	return b.seal(b.cl), nil
}

// determinize runs the subset construction of n: the construction's states,
// all phases, are b.keys.
func determinize(n *automata.NFA, opts Options) (*builder, error) {
	if err := n.Validate(); err != nil {
		return nil, fmt.Errorf("dfa: invalid automaton: %w", err)
	}
	maxStates := opts.MaxStates
	if maxStates == 0 {
		maxStates = 1 << 16
	}
	b := newBuilder(n, maxStates)
	if err := b.run(par.Workers(opts.Workers), opts.Trace); err != nil {
		return nil, err
	}
	return b, nil
}

// seal renumbers the working table into the DFA's form: one uint16 table per
// phase a lookup starts at, carved from a single allocation, successors as
// indices within the next such phase. The start state was interned first, so
// it is phase 0's state 0. Under classes that step bytes a row entry is
// composed of the sub-symbol rows it spans, read at its byte class's smallest
// byte; entries past the last class stay 0.
func (b *builder) seal(cl *Classes) *DFA {
	step := cl.step
	d := &DFA{
		bits: b.n.Bits, stride: b.S, step: step, anyEven: b.anyEven, cl: cl,
		tab: make([][]uint16, b.S/step), cyc: b.cyc, entries: b.entries,
	}
	rows := 0
	for q := range d.tab {
		rows += b.counts[q*step]
	}
	all := make([]uint16, rows*b.A)
	for q := range d.tab {
		c := b.counts[q*step] * b.A
		d.tab[q], all = all[:c:c], all[c:]
	}
	mask := b.A - 1
	for id, k := range b.keys {
		if int(k.phase)%step != 0 {
			continue
		}
		q := int(k.phase) / step
		row := d.tab[q][int(b.idx[id])*b.A:][:b.A]
		if step == 1 {
			for v, t := range b.next[id*b.A:][:b.A] {
				row[v] = b.idx[t]
			}
			continue
		}
		for c, x := range cl.byteRep[q] {
			t := int32(id)
			for sh := 8 - b.n.Bits; sh >= 0; sh -= b.n.Bits {
				t = b.next[int(t)*b.A+int(x)>>sh&mask]
			}
			row[c] = b.idx[t]
		}
	}
	return d
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
		byFP:      make(map[uint64]int32),
		counts:    make([]int, n.Stride),
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

	b.cl = ClassesOf(n)
	b.maskTrack = make([][]bitvec.Words, b.S)
	for p, rep := range b.cl.rep {
		b.maskTrack[p] = make([]bitvec.Words, len(rep))
		for c := range rep {
			b.maskTrack[p][c] = bitvec.NewWords(T)
		}
	}
	for t, r := range rects {
		for p, rep := range b.cl.rep {
			for c, v := range rep {
				if r[p].Has(v) {
					b.maskTrack[p][c].Set(t)
				}
			}
		}
	}
	return b
}

// lookup returns the id of the interned key equal to k, whose fingerprint
// is fp, or -1.
func (b *builder) lookup(k stateKey, fp uint64) int32 {
	id, ok := b.byFP[fp]
	for ok && id >= 0 {
		if b.keyEqual(b.keys[id], k) {
			return id
		}
		id = b.fpPrev[id]
	}
	return -1
}

// intern returns the id of the subset key, creating it if new. New keys
// must already own their bit-vector storage. Creation also derives the
// cycle-boundary record (report entries and the active count; computeRow
// fills in the enabled count).
func (b *builder) intern(k stateKey, fp uint64) (int32, bool) {
	if id := b.lookup(k, fp); id >= 0 {
		return id, false
	}
	id := int32(len(b.keys))
	b.keys = append(b.keys, k)
	prev, ok := b.byFP[fp]
	if !ok {
		prev = -1
	}
	b.fpPrev = append(b.fpPrev, prev)
	b.byFP[fp] = id
	b.idx = append(b.idx, uint16(b.counts[k.phase]))
	b.counts[k.phase]++
	if k.phase == 0 {
		rep := len(b.entries)
		k.w.ForEach(func(i int) {
			s := &b.n.States[i]
			if s.Report {
				b.entries = append(b.entries, ReportEntry{State: automata.StateID(i), Code: s.ReportCode, Offset: s.ReportOffset})
			}
		})
		nrep := len(b.entries) - rep
		b.wide = b.wide || nrep > math.MaxUint16
		b.cyc = append(b.cyc, CycleState{Active: int32(k.w.Count()), Rep: uint32(rep), NRep: uint16(nrep), Parity: k.parity})
	}
	return id, true
}

// rowScratch is one construction worker's reusable buffers.
type rowScratch struct {
	enabledBuf bitvec.Words // NFA frontier enabled for the next cycle
	initTracks bitvec.Words // tracks alive at phase 0
	stepBuf    bitvec.Words // tracks alive after one sub-symbol
	projBuf    bitvec.Words // projected NFA frontier at cycle end
	local      []int32      // per class, its successor's index in distinct
}

// rowResult holds one expanded state's transition row: the distinct
// successor keys discovered, their fingerprints and ids (an interned key's
// id, whose storage the result shares, or -1 for a key the result owns)
// and, per sub-symbol value, the index of its successor within distinct.
// A batch's results are reused by the next batch.
type rowResult struct {
	distinct []stateKey
	fps      []uint64
	ids      []int32
	sym      []int32
}

// computeRow expands state id: it derives the enabled set (phase-0 states)
// or resumes the live-track set (mid-cycle states), then applies one
// sub-symbol of every class, deduplicating successors row-locally by
// fingerprint, and expands the row to every value. Classes are taken in
// order of their smallest member, so the successors are discovered in the
// order a pass over every value would discover them. A successor already
// interned is taken as its id, and only a new one copies its words: the
// interned keys are read, never written, while rows are computed. It is pure
// per state, so rows may be computed in any order by any number of workers.
func (b *builder) computeRow(id int32, sc *rowScratch, res *rowResult) {
	k := b.keys[id]
	res.distinct, res.fps, res.ids = res.distinct[:0], res.fps[:0], res.ids[:0]
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
		b.cyc[b.idx[id]].Enabled = int32(sc.enabledBuf.Count())
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
	for c, m := range b.maskTrack[curPhase] {
		src.AndInto(m, sc.stepBuf)
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
			sid := b.lookup(succ, fp)
			if sid >= 0 {
				succ = b.keys[sid]
			} else {
				succ.w = slices.Clone(w)
			}
			local = int32(len(res.distinct))
			res.distinct = append(res.distinct, succ)
			res.fps = append(res.fps, fp)
			res.ids = append(res.ids, sid)
		}
		sc.local[c] = local
	}
	for v, c := range b.cl.of[curPhase] {
		res.sym[v] = sc.local[c]
	}
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
			local:      make([]int32, b.A),
		})
		scratchFree = append(scratchFree, int32(w))
	}
	var scratchMu chan int32 // buffered channel as a tiny scratch free-list
	scratchMu = make(chan int32, workers)
	for _, i := range scratchFree {
		scratchMu <- i
	}

	var batch []rowResult // every batch's results, grown to the largest batch
	for done := 0; done < len(b.keys); {
		hi := len(b.keys)
		if hi-done > maxBatch {
			hi = done + maxBatch
		}
		for len(batch) < hi-done {
			batch = append(batch, rowResult{sym: make([]int32, b.A)})
		}
		results := batch[:hi-done]
		par.TraceFor(tr, "dfa/determinize", workers, hi-done, func(i int) {
			si := <-scratchMu
			b.computeRow(int32(done+i), &scratch[si], &results[i])
			scratchMu <- si
		})
		// Grow the tables once a batch: by a row each, and by every
		// successor no interned key matched, an upper bound on the new keys.
		owned := 0
		for i := range results {
			for _, id := range results[i].ids {
				if id < 0 {
					owned++
				}
			}
		}
		b.next = slices.Grow(b.next, len(results)*b.A)
		b.keys, b.idx, b.fpPrev = slices.Grow(b.keys, owned), slices.Grow(b.idx, owned), slices.Grow(b.fpPrev, owned)
		for i := range results {
			res := &results[i]
			ids := res.ids
			rowBase := len(b.next)
			b.next = append(b.next, res.sym...)
			for v := 0; v < b.A; v++ {
				li := res.sym[v]
				if ids[li] < 0 {
					id, fresh := b.intern(res.distinct[li], res.fps[li])
					if fresh {
						switch p := res.distinct[li].phase; {
						case len(b.keys) > b.maxStates:
							return fmt.Errorf("%w (cap %d)", ErrStateBlowup, b.maxStates)
						case b.counts[p] > MaxPhaseStates:
							return fmt.Errorf("%w (phase %d outgrows %d states)", ErrStateBlowup, p, MaxPhaseStates)
						case b.wide:
							return fmt.Errorf("%w (a state reports more than %d times)", ErrStateBlowup, math.MaxUint16)
						}
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

// emit sends the report entries of r, the state entered at the end of cycle
// t, into sink with base added to their state IDs; limitBits >= 0 suppresses
// those past it.
func (d *DFA) emit(r *CycleState, t int, base automata.StateID, limitBits int, sink sim.ReportSink) {
	for _, e := range d.entries[r.Rep:][:r.NRep] {
		bitPos := (t*d.stride + e.Offset) * d.bits
		if limitBits < 0 || bitPos <= limitBits {
			sink(sim.Report{BitPos: bitPos, Code: e.Code, State: e.State + base})
		}
	}
}

// Core walks one or more DFAs over the same input as one sim.Core — the DFA
// side of a lockstep is one lane however many tables it holds — so DFA tiers
// stream through the same Session machinery (chunked Feed, sub-symbol carry,
// padded Flush) as every other engine. Its symbols are the automaton's
// sub-symbols, or bytes when its DFAs step bytes (Geometry), and it takes
// them a lookup each. Between blocks it carries only the current state of
// each DFA; the rest is scratch sized by the longest block it has walked —
// chiefly the state each DFA entered at every cycle of the block, two bytes a
// cycle and DFA — so cores are cheap to create per stream. A Core is not safe
// for concurrent use, but any number may share immutable DFAs.
type Core struct {
	ds   []*DFA
	tabs [][]uint16         // ds[k].tab[p] at k*S+p, S lookups a cycle: one load from a lookup's table
	base []automata.StateID // added to the state IDs of DFA k's reports
	// cm[p] maps the cycle's p-th byte to its class when the DFAs step
	// bytes; nil when they step sub-symbols.
	cm  [][256]uint8
	cur []uint16
	// hist[k*n+i] is the state DFA k entered at the end of cycle i of the
	// n-cycle block in progress. act and rep are the scratch of settle, which
	// settles the blocks of a core of several DFAs or with a kernel: act[i]
	// sums cycle i's active counts over the DFAs and rep marks the cycles a
	// DFA reports on. Both are zero between blocks, and a core of one DFA
	// and no kernel, which settles in its walk, never grows them.
	hist []uint16
	act  []int32
	rep  []uint64
	// group is the group of chains being walked, pt[p][l] the phase-p table
	// of its lane l's DFA, and seam its chains' states on the cycle before
	// their seams.
	group group
	pt    [][width][]uint16
	seam  [width]uint16
	// kernel, when the core has one, steps the states no DFA covers beside
	// the walker, a cycle at a time over the walked block (Lockstep): the
	// per-cycle sum PeakActive is the maximum of is then the DFAs' plus the
	// kernel's. Its reports' state IDs are offset by kbase, and ksink
	// forwards them to sink, the sink of the block in progress (nil between
	// blocks). The kernel steps the block's symbols as the core takes them
	// (Geometry): bytes when its cycle is whole bytes, so a walker over DFAs
	// that step sub-symbols beside it walks the block unpacked into wsubs.
	kernel sim.Core
	kbase  automata.StateID
	ksink  sim.ReportSink
	sink   sim.ReportSink
	unpack bool
	wsubs  []byte
}

// width is how many chains the walker steps in lockstep: each chain's state
// stays in a register from cycle to cycle, so the table misses of the chains
// overlap instead of queueing behind one another.
const width = 4

// warm is how many cycles a speculative chain walks, at the least, before its
// seam: a DFA that resynchronises has forgotten the state it started from by
// then, so the chain meets the seam in the state the previous segment ends in
// and the check costs one compare. It is even, as is every chain's first
// cycle, so a chain started from the block's entry state starts on a cycle of
// that state's parity (StartEven).
const warm = 32

// group is the chains one walk steps, one a lane: lane l's chain reads the
// block's sub-symbols from sub[l] and writes its states to the history from
// hist[l] (its first cycle's, in its DFA's row) on, and is in state s[l].
type group struct {
	sub, hist [width]int
	s         [width]uint16
}

// NewCore returns a fresh per-stream core over the DFA.
func (d *DFA) NewCore() *Core { return newCore([]*DFA{d}, []automata.StateID{0}) }

func newCore(ds []*DFA, base []automata.StateID) *Core {
	c := &Core{ds: ds, base: base, cur: make([]uint16, len(ds)), pt: make([][width][]uint16, len(ds[0].tab))}
	for _, d := range ds {
		if d.step != ds[0].step || d.step > 1 && !slices.Equal(d.cl.byteOf, ds[0].cl.byteOf) {
			panic("dfa: one lane over DFAs stepped by different class maps")
		}
		c.tabs = append(c.tabs, d.tab...)
	}
	if ds[0].step > 1 {
		c.cm = ds[0].cl.byteOf
	}
	c.ResetState()
	return c
}

// Lane returns the lockstep lane that walks every DFA of ds, which must be
// non-empty, of one geometry and, when they step bytes, stepped by one class
// map — selected over one automaton and its parts (Select, SelectIn) or
// loaded from one artifact; origs[k] maps the state IDs of DFA k's reports to
// the IDs the lane's reports carry.
func Lane(ds []*DFA, origs [][]automata.StateID) sim.Lane { return lane(ds, origs, nil, nil) }

// lane is Lane with, when kernel is not nil, a kernel over the states no DFA
// covers stepped beside the walker; kernelOrig maps its reports' state IDs.
func lane(ds []*DFA, origs [][]automata.StateID, kernel *sim.Compiled, kernelOrig []automata.StateID) sim.Lane {
	base := make([]automata.StateID, len(ds))
	var orig []automata.StateID
	for k, o := range origs {
		base[k] = automata.StateID(len(orig))
		orig = append(orig, o...)
	}
	kbase := automata.StateID(len(orig))
	orig = append(orig, kernelOrig...)
	return sim.Lane{New: func() sim.Core {
		c := newCore(ds, base)
		if kernel != nil {
			c.kernel, c.kbase = kernel.NewEngine(), kbase
			kb, _ := c.kernel.Geometry()
			c.unpack = c.cm == nil && kb != ds[0].bits
			c.ksink = func(r sim.Report) {
				r.State += c.kbase
				c.sink(r)
			}
		}
		return c
	}, Orig: orig}
}

// DFAs returns the DFAs the core walks, in the order Lane was given them.
func (c *Core) DFAs() []*DFA { return c.ds }

// HasKernel reports whether the core steps a kernel beside its walk: whether
// a state of its lockstep form is left to no DFA.
func (c *Core) HasKernel() bool { return c.kernel != nil }

// Geometry implements sim.Core: the width and count of the symbols StepBlock
// takes a cycle — bytes, when the DFAs step bytes or the kernel beside them
// does.
func (c *Core) Geometry() (bits, stride int) {
	switch {
	case c.cm != nil:
		return 8, len(c.pt)
	case c.kernel != nil:
		return c.kernel.Geometry()
	}
	return c.ds[0].bits, c.ds[0].stride
}

// ResetState implements sim.Core.
func (c *Core) ResetState() {
	for k, d := range c.ds {
		c.cur[k] = d.start
	}
	if c.kernel != nil {
		c.kernel.ResetState()
	}
}

// StepBlock implements sim.Core. Each DFA's walk of the block is cut into
// segments, and every (DFA, segment) pair is a chain — DFA k's segment j is
// chain k*g+j — walked width chains at a time in lockstep (walk, or walkBytes
// over bytes), a short last group filled up with its last chain again. Every
// segment starts from the DFA's state at the block's entry: the true state
// for the first, a guess for a later one, which starts at least warm cycles
// before its seam.
// At the seam a later segment's state is checked against the state the
// previous segment reached there; on a mismatch the segment is walked again
// from the true state until it meets its own history.
//
// A core of one DFA and no kernel settles the block as it walks it: the walk
// over the cycles each chain is authoritative for tallies the records of the
// states it enters (the enabled and active sums, the peak, and whether some
// state reports) in registers, and the cycles it does not cover (chain 0's
// up to the seam values), a filler lane's duplicate and a re-walked cycle's
// guessed record go through the same tally in a short loop. Only a block
// some entered state reports on then pays a pass over its history, for its
// reports. A core of several DFAs or with a kernel settles the walked block
// DFA by DFA: the per-cycle sum over its DFAs, which PeakActive is the
// maximum of, and the cycles they report on; a kernel is stepped beside the
// settled block a cycle at a time, its counts added into the cycle's and its
// reports after the cycle's DFA reports. Reports go out in (cycle, DFA)
// order, and the output is the serial walk's whatever the guesses.
func (c *Core) StepBlock(subs []byte, t0 int, limitBits int, sink sim.ReportSink, _ sim.Tracer) (enabled, active int64, peak int) {
	ksubs := subs
	if c.unpack {
		c.wsubs = sim.AppendSubSymbols(c.wsubs[:0], c.ds[0].bits, subs)
		subs = c.wsubs
	}
	ds, S, sh := c.ds, len(c.pt), uint(c.ds[0].bits)&15
	n, K := len(subs)/S, len(ds)
	if n == 0 {
		return 0, 0, 0
	}
	// Segment j walks cycles [j*step, j*step+L): the last ends on the
	// block's last cycle, and each overlaps the next by at least warm
	// cycles. Segment j's seam, where its predecessor's walk ends and its
	// own authority begins, is at (j-1)*step + L.
	g := max(1, min(width/K, (n-warm)/warm))
	step := 0
	if g > 1 {
		step = (n - warm) / g &^ 1
	}
	L := n - (g-1)*step
	if cap(c.hist) < K*n {
		c.hist = make([]uint16, K*n)
	}
	hist := c.hist[:K*n]
	// cyc is the records the walk tallies, nil when the block is settled
	// after it: a cycle's active count is one record's only when the core
	// walks one DFA and steps no kernel.
	var cyc []CycleState
	if K == 1 && c.kernel == nil {
		cyc = ds[0].cyc
	}
	var s tally
	for q := 0; q < K*g; q += width {
		for l := range width {
			ch := min(q+l, K*g-1)
			k, j := ch/g, ch%g
			c.group.sub[l], c.group.hist[l], c.group.s[l] = j*step*S, k*n+j*step, c.cur[k]
			for p := range c.pt {
				c.pt[p][l] = c.tabs[k*S+p]
			}
		}
		// A chain is authoritative for the last step cycles of its walk,
		// chain 0 for all L: the walk up to the seam tallies nothing.
		i0 := 0
		if g > 1 {
			i0 = L - step
			c.walk(subs, hist, 0, i0, sh, nil, nil)
			c.seam = c.group.s
		}
		c.walk(subs, hist, i0, L, sh, cyc, &s)
		// A filler lane walked the last chain again: its tally is that
		// chain's, taken back out.
		if f := q + width - K*g; f > 0 && cyc != nil {
			h := c.group.hist[width-1]
			s.add(hist[h+i0:h+L], cyc, -int32(f))
		}
	}
	// Chain 0's cycles up to the seam values, which no tallying walk covers.
	if cyc != nil && g > 1 {
		s.add(hist[:L-step], cyc, 1)
	}

	// A cycle's history is written last by the chain whose segment holds it
	// (a chain walks its successor's warm-up step cycles after the successor
	// does), so at a seam hist holds the state the predecessor ended in —
	// the true one once the seams before it are settled, left to right. A
	// block cut into segments is one group, so chain k*g+j is lane k*g+j.
	// A re-walked cycle's guessed record is tallied out and its true one in.
	rewalked := 0
	for k := 0; k < K && g > 1; k++ {
		h, tab := hist[k*n:][:n], c.tabs[k*S:][:S]
		for j := 1; j < g; j++ {
			seam, end := (j-1)*step+L, j*step+L
			x := h[seam-1]
			if x == c.seam[k*g+j] {
				continue
			}
			for i := seam; i < end; i++ {
				for p, v := range subs[i*S:][:S] {
					if c.cm != nil {
						v = c.cm[p][v]
					}
					x = tab[p][int(x)<<sh|int(v)]
				}
				rewalked++
				if x == h[i] {
					break
				}
				if cyc != nil {
					s.add(h[i:i+1], cyc, -1)
				}
				if h[i] = x; cyc != nil {
					s.add(h[i:i+1], cyc, 1)
				}
			}
		}
	}
	if rewalked > 0 {
		if m := tierMetricsPtr.Load(); m != nil {
			m.rewalked.Add(int64(rewalked))
		}
		// The peak may have been a guessed record's: it is taken again over
		// the settled history by a tally of weight 0, which moves nothing
		// else.
		if cyc != nil {
			s.peak = 0
			s.add(hist, cyc, 0)
		}
	}

	// Cycle i is enabled from the state entered at the end of cycle i-1 (the
	// entry state for the first), so a DFA's sum over the states it entered
	// is off by the entry state and the last one.
	for k, d := range ds {
		last := hist[k*n+n-1]
		enabled += int64(d.cyc[c.cur[k]].Enabled) - int64(d.cyc[last].Enabled)
		c.cur[k] = last
	}
	if cyc != nil {
		if s.rep != 0 {
			for i, x := range hist {
				if r := &cyc[x]; r.NRep != 0 {
					ds[0].emit(r, t0+i, c.base[0], limitBits, sink)
				}
			}
		}
		return enabled + s.enabled, s.active, int(s.peak)
	}
	return c.settle(ksubs, hist, n, t0, limitBits, sink, enabled)
}

// settle settles the walked n-cycle block of a core of several DFAs or with
// a kernel, DFA by DFA (hist, act and rep as StepBlock leaves them), adding
// to enabled: one pass over each DFA's history sums its enabled and active
// counts into act and marks the cycles it reports on; the kernel, when the
// core has one, is stepped beside the block a cycle at a time over ksubs, the
// block as the core took it, the cycle's DFA reports emitted before its own;
// a last pass takes the active sum and the peak, and zeroes act and rep.
func (c *Core) settle(ksubs []byte, hist []uint16, n, t0, limitBits int, sink sim.ReportSink, enabled int64) (_, active int64, peak int) {
	if cap(c.act) < n {
		c.act, c.rep = make([]int32, n), make([]uint64, (n+63)/64)
	}
	act, rep := c.act[:n], c.rep[:(n+63)/64]
	for k, d := range c.ds {
		cyc := d.cyc
		for i, x := range hist[k*n:][:n] {
			r := &cyc[x]
			enabled += int64(r.Enabled)
			act[i] += r.Active
			if r.NRep != 0 {
				rep[i>>6] |= 1 << (i & 63)
			}
		}
	}
	if c.kernel != nil {
		kS := len(ksubs) / n
		c.sink = sink
		for i := range act {
			if rep[i>>6]&(1<<(i&63)) != 0 {
				c.report(hist, n, i, t0, limitBits, sink)
			}
			e, a, _ := c.kernel.StepBlock(ksubs[i*kS:][:kS], t0+i, limitBits, c.ksink, nil)
			enabled += e
			act[i] += int32(a)
		}
		clear(rep)
		c.sink = nil
	}
	for i, na := range act {
		active += int64(na)
		peak = max(peak, int(na))
		act[i] = 0
	}
	for w, m := range rep {
		for ; m != 0; m &= m - 1 {
			c.report(hist, n, w<<6|bits.TrailingZeros64(m), t0, limitBits, sink)
		}
		rep[w] = 0
	}
	return enabled, active, peak
}

// tally is what settling a block gathers of the records of the states its
// DFA entered: the enabled and active sums, the largest active count, and
// every record's NRep ORed together, nonzero when some entered state
// reports.
type tally struct {
	enabled, active int64
	peak            int32
	rep             uint16
}

// add tallies w times the records of the states h holds. The peak and the
// report flag take every record in whatever w is, so a negative w takes back
// out what a tally of the same states put in, and a w of 0 takes the peak.
func (s *tally) add(h []uint16, cyc []CycleState, w int32) {
	for _, x := range h {
		r := &cyc[x]
		s.enabled += int64(w) * int64(r.Enabled)
		s.active += int64(w) * int64(r.Active)
		s.peak = max(s.peak, r.Active)
		s.rep |= r.NRep
	}
}

// report emits the reports of cycle i of the n-cycle block, DFA by DFA.
func (c *Core) report(hist []uint16, n, i, t0, limitBits int, sink sim.ReportSink) {
	for k, d := range c.ds {
		if r := &d.cyc[hist[k*n+i]]; r.NRep != 0 {
			d.emit(r, t0+i, c.base[k], limitBits, sink)
		}
	}
}

// walk steps the group's chains through cycles [i0, i1) of their own, over
// sub-symbols or bytes as the core's DFAs step, and tallies into t the
// records cyc of the states they enter when cyc is not nil. The walks that
// tally are separate functions: tally code in the same loop, even skipped,
// slowed the walk of a core of several DFAs.
func (c *Core) walk(subs []byte, hist []uint16, i0, i1 int, sh uint, cyc []CycleState, t *tally) {
	switch {
	case cyc == nil && c.cm != nil:
		walkBytes(&c.group, c.pt, c.cm, subs, hist, i0, i1, sh)
	case cyc == nil:
		walk(&c.group, c.pt, subs, hist, i0, i1, sh)
	case c.cm != nil:
		walkBytesTally(&c.group, c.pt, c.cm, subs, hist, i0, i1, sh, cyc, t)
	default:
		walkTally(&c.group, c.pt, subs, hist, i0, i1, sh, cyc, t)
	}
}

// walk steps the group's chains through cycles [i0, i1) of their own, in
// lockstep: every state lives in a register from cycle to cycle and through
// the Stride lookups, so the chains' table misses overlap and no lookup waits
// on a store. pt[p][l] is lane l's table of phase p.
func walk(ln *group, pt [][width][]uint16, subs []byte, hist []uint16, i0, i1 int, sh uint) {
	S := len(pt)
	sh &= 15 // a bound the compiler can see: no shift-count check in the loop
	xa := subs[ln.sub[0]+i0*S : ln.sub[0]+i1*S]
	xb, xc, xd := subs[ln.sub[1]+i0*S:][:len(xa)], subs[ln.sub[2]+i0*S:][:len(xa)], subs[ln.sub[3]+i0*S:][:len(xa)]
	ha := hist[ln.hist[0]+i0 : ln.hist[0]+i1]
	hb, hc, hd := hist[ln.hist[1]+i0:][:len(ha)], hist[ln.hist[2]+i0:][:len(ha)], hist[ln.hist[3]+i0:][:len(ha)]
	a, b, c, d := ln.s[0], ln.s[1], ln.s[2], ln.s[3]
	i, p := 0, 0
	for j, v := range xa {
		r := &pt[p]
		a = r[0][int(a)<<sh|int(v)]
		b = r[1][int(b)<<sh|int(xb[j])]
		c = r[2][int(c)<<sh|int(xc[j])]
		d = r[3][int(d)<<sh|int(xd[j])]
		if p++; p == S {
			ha[i], hb[i], hc[i], hd[i] = a, b, c, d
			i, p = i+1, 0
		}
	}
	ln.s = [width]uint16{a, b, c, d}
}

// walkBytes is walk over bytes, one lookup a byte: each byte is mapped to its
// class by cm[p], the map of the cycle's p-th byte, a load no state waits on.
func walkBytes(ln *group, pt [][width][]uint16, cm [][256]uint8, subs []byte, hist []uint16, i0, i1 int, sh uint) {
	S := len(pt)
	cm = cm[:S]
	sh &= 15
	xa := subs[ln.sub[0]+i0*S : ln.sub[0]+i1*S]
	xb, xc, xd := subs[ln.sub[1]+i0*S:][:len(xa)], subs[ln.sub[2]+i0*S:][:len(xa)], subs[ln.sub[3]+i0*S:][:len(xa)]
	ha := hist[ln.hist[0]+i0 : ln.hist[0]+i1]
	hb, hc, hd := hist[ln.hist[1]+i0:][:len(ha)], hist[ln.hist[2]+i0:][:len(ha)], hist[ln.hist[3]+i0:][:len(ha)]
	a, b, c, d := ln.s[0], ln.s[1], ln.s[2], ln.s[3]
	i, p := 0, 0
	for j, v := range xa {
		r, m := &pt[p], &cm[p]
		a = r[0][int(a)<<sh|int(m[v])]
		b = r[1][int(b)<<sh|int(m[xb[j]])]
		c = r[2][int(c)<<sh|int(m[xc[j]])]
		d = r[3][int(d)<<sh|int(m[xd[j]])]
		if p++; p == S {
			ha[i], hb[i], hc[i], hd[i] = a, b, c, d
			i, p = i+1, 0
		}
	}
	ln.s = [width]uint16{a, b, c, d}
}

// walkTally is walk over the chains of one DFA that also tallies each
// cycle's four records into t as it writes the history: loads off the state
// chain, which overlap its misses instead of running in a second loop after
// it.
func walkTally(ln *group, pt [][width][]uint16, subs []byte, hist []uint16, i0, i1 int, sh uint, cyc []CycleState, t *tally) {
	S := len(pt)
	sh &= 15 // a bound the compiler can see: no shift-count check in the loop
	xa := subs[ln.sub[0]+i0*S : ln.sub[0]+i1*S]
	xb, xc, xd := subs[ln.sub[1]+i0*S:][:len(xa)], subs[ln.sub[2]+i0*S:][:len(xa)], subs[ln.sub[3]+i0*S:][:len(xa)]
	ha := hist[ln.hist[0]+i0 : ln.hist[0]+i1]
	hb, hc, hd := hist[ln.hist[1]+i0:][:len(ha)], hist[ln.hist[2]+i0:][:len(ha)], hist[ln.hist[3]+i0:][:len(ha)]
	a, b, c, d := ln.s[0], ln.s[1], ln.s[2], ln.s[3]
	i, p := 0, 0
	for j, v := range xa {
		r := &pt[p]
		a = r[0][int(a)<<sh|int(v)]
		b = r[1][int(b)<<sh|int(xb[j])]
		c = r[2][int(c)<<sh|int(xc[j])]
		d = r[3][int(d)<<sh|int(xd[j])]
		if p++; p == S {
			ha[i], hb[i], hc[i], hd[i] = a, b, c, d
			r := &cyc[a]
			en, ac, pk, nr := int64(r.Enabled), int64(r.Active), r.Active, r.NRep
			r = &cyc[b]
			en, ac, pk, nr = en+int64(r.Enabled), ac+int64(r.Active), max(pk, r.Active), nr|r.NRep
			r = &cyc[c]
			en, ac, pk, nr = en+int64(r.Enabled), ac+int64(r.Active), max(pk, r.Active), nr|r.NRep
			r = &cyc[d]
			en, ac, pk, nr = en+int64(r.Enabled), ac+int64(r.Active), max(pk, r.Active), nr|r.NRep
			t.enabled += en
			t.active += ac
			t.peak = max(t.peak, pk)
			t.rep |= nr
			i, p = i+1, 0
		}
	}
	ln.s = [width]uint16{a, b, c, d}
}

// walkBytesTally is walkBytes with walkTally's tally.
func walkBytesTally(ln *group, pt [][width][]uint16, cm [][256]uint8, subs []byte, hist []uint16, i0, i1 int, sh uint, cyc []CycleState, t *tally) {
	S := len(pt)
	cm = cm[:S]
	sh &= 15
	xa := subs[ln.sub[0]+i0*S : ln.sub[0]+i1*S]
	xb, xc, xd := subs[ln.sub[1]+i0*S:][:len(xa)], subs[ln.sub[2]+i0*S:][:len(xa)], subs[ln.sub[3]+i0*S:][:len(xa)]
	ha := hist[ln.hist[0]+i0 : ln.hist[0]+i1]
	hb, hc, hd := hist[ln.hist[1]+i0:][:len(ha)], hist[ln.hist[2]+i0:][:len(ha)], hist[ln.hist[3]+i0:][:len(ha)]
	a, b, c, d := ln.s[0], ln.s[1], ln.s[2], ln.s[3]
	i, p := 0, 0
	for j, v := range xa {
		r, m := &pt[p], &cm[p]
		a = r[0][int(a)<<sh|int(m[v])]
		b = r[1][int(b)<<sh|int(m[xb[j]])]
		c = r[2][int(c)<<sh|int(m[xc[j]])]
		d = r[3][int(d)<<sh|int(m[xd[j]])]
		if p++; p == S {
			ha[i], hb[i], hc[i], hd[i] = a, b, c, d
			r := &cyc[a]
			en, ac, pk, nr := int64(r.Enabled), int64(r.Active), r.Active, r.NRep
			r = &cyc[b]
			en, ac, pk, nr = en+int64(r.Enabled), ac+int64(r.Active), max(pk, r.Active), nr|r.NRep
			r = &cyc[c]
			en, ac, pk, nr = en+int64(r.Enabled), ac+int64(r.Active), max(pk, r.Active), nr|r.NRep
			r = &cyc[d]
			en, ac, pk, nr = en+int64(r.Enabled), ac+int64(r.Active), max(pk, r.Active), nr|r.NRep
			t.enabled += en
			t.active += ac
			t.peak = max(t.peak, pk)
			t.rep |= nr
			i, p = i+1, 0
		}
	}
	ln.s = [width]uint16{a, b, c, d}
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

// Raw is the serialization view of a DFA: every slice aliases the DFA's
// storage (callers must treat it as read-only). It exists so the artifact
// codec can seal and restore DFA tiers without the dfa package knowing the
// wire format.
type Raw struct {
	Bits, Stride int
	// Step is the sub-symbols a lookup takes (DFA.Step), and Classes the
	// class map of the automaton, whose step it must be.
	Step    int
	Classes *Classes
	AnyEven bool
	Start   uint16
	// Tab[q] is the table of phase q*Step: 1<<Bits entries per state, each
	// an index within phase (q+1)*Step mod Stride.
	Tab     [][]uint16
	Cycles  []CycleState // one per state of phase 0
	Entries []ReportEntry
}

// NumStates returns the state count over all phases.
func (r *Raw) NumStates() int {
	n := 0
	for _, t := range r.Tab {
		n += len(t) >> r.Bits
	}
	return n
}

// Raw returns the serialization view of the DFA.
func (d *DFA) Raw() *Raw {
	return &Raw{
		Bits: d.bits, Stride: d.stride, Step: d.step, Classes: d.cl, AnyEven: d.anyEven, Start: d.start,
		Tab: d.tab, Cycles: d.cyc, Entries: d.entries,
	}
}

// FromRaw reassembles a DFA from its serialization view, validating
// structural invariants: the step the class map takes, table shapes, start in
// range, every report range inside the entry array and every cycle record's
// counts. Every successor must lie within the phase it names, which FromRaw
// does not re-check: its caller, the artifact's DFAT decode, checks each
// table's largest entry in the loop that reads it. Together they are the one
// check of a sealed table: the result is what Sealed holds and what
// UnsealSelection walks.
func FromRaw(r *Raw) (*DFA, error) {
	if r.Bits != 2 && r.Bits != 4 && r.Bits != 8 {
		return nil, fmt.Errorf("dfa: invalid bits %d", r.Bits)
	}
	if cl := r.Classes; cl == nil || cl.bits != r.Bits || cl.stride != r.Stride {
		return nil, fmt.Errorf("dfa: no class map of a %d-bit stride-%d automaton", r.Bits, r.Stride)
	}
	if r.Step != r.Classes.step {
		return nil, fmt.Errorf("dfa: %d sub-symbols a lookup, the automaton's classes take %d", r.Step, r.Classes.step)
	}
	if r.Stride < 1 || len(r.Tab) != r.Stride/r.Step {
		return nil, fmt.Errorf("dfa: %d phase tables for stride %d, %d sub-symbols a lookup", len(r.Tab), r.Stride, r.Step)
	}
	A := 1 << r.Bits
	for p, t := range r.Tab {
		if len(t)%A != 0 || len(t)/A > MaxPhaseStates {
			return nil, fmt.Errorf("dfa: phase %d table length %d is not at most %d rows of %d", p, len(t), MaxPhaseStates, A)
		}
	}
	ns := len(r.Tab[0]) / A
	if len(r.Cycles) != ns {
		return nil, fmt.Errorf("dfa: %d cycle-boundary records for %d states", len(r.Cycles), ns)
	}
	if int(r.Start) >= ns {
		return nil, fmt.Errorf("dfa: start state %d out of range [0,%d)", r.Start, ns)
	}
	for i := range r.Cycles {
		c := &r.Cycles[i]
		if uint64(c.Rep)+uint64(c.NRep) > uint64(len(r.Entries)) {
			return nil, fmt.Errorf("dfa: state %d report range [%d,+%d) past %d entries", i, c.Rep, c.NRep, len(r.Entries))
		}
		if c.Enabled < 0 || c.Active < 0 || c.Parity > 1 {
			return nil, fmt.Errorf("dfa: state %d carries invalid counts or parity", i)
		}
	}
	return &DFA{
		bits: r.Bits, stride: r.Stride, step: r.Step, anyEven: r.AnyEven, cl: r.Classes,
		tab: r.Tab, start: r.Start, cyc: r.Cycles, entries: r.Entries,
	}, nil
}
