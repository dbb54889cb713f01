package sim

import (
	"math/bits"
	"slices"

	"impala/internal/automata"
	"impala/internal/bitvec"
)

// Compiled is the bit-parallel compiled form of an automaton — the software
// rendering of the paper's two-phase in-memory datapath. Where the scalar
// Engine dispatches per enabled state, Compiled precomputes:
//
//   - per-position symbol mask tables: for the q-th symbol of a cycle and
//     its class c, the bit-vector of states whose match rule accepts the
//     symbols of class c there. A cycle that is whole bytes takes bytes, one
//     table per byte indexed by the byte's joint class
//     (automata.ByteClassesOf), so the state-match phase is bits·S/8
//     word-wise ANDs — two at 4-bit × 4, where the paper's capsule reads
//     four nibble columns; any other cycle takes its S sub-symbols, each its
//     own class. Either is the hardware's one-column-read-per-dimension
//     followed by the capsule AND gate, evaluated for 64 states at once.
//   - successor rows in CSR form (per state, the non-zero words of its
//     enable mask): the state-transition phase ORs the row of each active
//     state into the enable vector via bitvec.CSR.OrRowsInto — the wired-OR
//     of successor rows on the interconnect bit-lines, at a cost and a
//     footprint proportional to the configured switch points.
//   - the three start-enable vectors a cycle can need (first cycle of a
//     stream, even cycles, odd cycles), each with the summary of its
//     non-zero words and its size, and for the even and odd ones, when a
//     cycle is one or two symbols, what the vector does on each class tuple
//     (its images, see image): the start states the tuple activates, their
//     successor rows ORed, and the classes those successors accept. A cycle
//     looks its start vector up by its tuple instead of sweeping the start
//     words — the paper's always-enabled STEs cost its subarray one column
//     read, not one per start word.
//
// Everything a cycle touches is indexed by word, and the engine visits only
// the words a summary or an image names (see CompiledEngine), so a cycle
// costs its live words, not the automaton's size — as only the blocks of the
// switch hierarchy that hold an active state drive their rows.
//
// States whose MatchSet is not position-decomposable (a union of rects that
// is not itself a cartesian product) cannot be expressed as one column per
// dimension; they are kept on a small residual list and matched scalar per
// cycle, exactly as the hardware would need a split state per rect.
//
// A Compiled value is immutable after Compile and safe to share across
// goroutines; per-run mutable state lives in CompiledEngine.
type Compiled struct {
	nfa *automata.NFA

	// A cycle is units symbols of unitBits each: bytes when it is whole
	// bytes, its sub-symbols otherwise.
	unitBits, units int
	// classOf[q][x] is the class of symbol x at the cycle's q-th symbol:
	// a byte's joint class, or the sub-symbol itself.
	classOf [][256]uint8
	// masks[q][c*words+w] holds, for the 64 states of word w, which accept
	// the symbols of class c at the cycle's q-th symbol: a class's row of
	// words is one run, which a cycle reads at its live words. Residual
	// states have zero bits in every mask. nclass[q] is the classes of the
	// q-th symbol.
	masks  [][]uint64
	nclass []int
	words  int
	// residual lists non-decomposable states, ascending.
	residual []automata.StateID

	// succ row i holds the enable mask of state i's successors.
	succ *bitvec.CSR

	// Start-enable vectors by cycle class: odd cycles enable the all-input
	// starts, even cycles add the even starts, and cycle 0 of a stream adds
	// the start-of-data states. A class that adds nothing aliases the one
	// below it.
	startOdd, startEven, startFirst *startVector
	// images holds what the odd and the even vector do on each class tuple
	// (startVector.pair indexes it), image 0 the empty one; imageWords holds
	// the words their spans name, and acceptWords their accepted classes,
	// acceptStride words a symbol of the cycle (image 0's are zero).
	images       []image
	imageWords   []wordBits
	acceptWords  []uint64
	acceptStride int
	// none is the empty vector: what a swept cycle drops of its enable
	// vector, and the start words a looked-up cycle's match pass walks.
	none bitvec.Frontier

	// reporting holds the reporting states, which the report loop walks.
	// gate is reporting ∪ the watched states (CompileWatching): a cycle on
	// which none of its states is active skips the report loop and, on a
	// watching kernel, the lane. A kernel that watches nothing has gate alias
	// reporting.
	reporting, gate bitvec.Words
	// watching is set on a kernel compiled with a watch set, whose lane runs
	// only on the cycles gate sends past the common path; another kernel's
	// lane runs on every cycle it steps whole.
	watching bool

	// pool recycles engines (per-stream buffers) and their sessions across
	// the concurrent one-shot Run calls on this compiled form.
	pool *Pool
}

// Compile precompiles the automaton into its bit-parallel form, in time and
// space O(states + edges + stride·alphabet·states/64). The automaton must
// validate; it must not be mutated while the compiled form is in use (the
// compiled form aliases it for residual matching and report metadata).
func Compile(n *automata.NFA) (*Compiled, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return CompileValidated(n), nil
}

// CompileValidated is Compile for an automaton the caller has validated and
// not changed since, so that a machine's load path, which arch.Check has
// validated it on, does not walk every state's rects once more.
func CompileValidated(n *automata.NFA) *Compiled { return compile(n, nil) }

// CompileWatching is CompileValidated for a kernel whose lane (SetLane) needs
// only the cycles on which a state of watch, a non-nil vector of a bit per
// state, is active or a report fires: the kernel calls it on those alone,
// where another kernel calls its lane on every cycle it steps whole.
// internal/score watches the states whose score depends on the path that
// reached them.
func CompileWatching(n *automata.NFA, watch bitvec.Words) *Compiled { return compile(n, watch) }

// compile builds the kernel; a nil watch compiles one that watches nothing.
func compile(n *automata.NFA, watch bitvec.Words) *Compiled {
	ns := n.NumStates()
	S := n.Stride
	dom := automata.DomainSize(n.Bits)
	nw := (ns + 63) / 64

	c := &Compiled{
		nfa:       n,
		unitBits:  n.Bits,
		units:     S,
		words:     nw,
		startOdd:  &startVector{Frontier: bitvec.NewFrontier(ns)},
		none:      bitvec.NewFrontier(ns),
		reporting: bitvec.NewWords(ns),
		watching:  watch != nil,
	}
	// val[(p*dom+v)*nw+w] holds which states of word w accept sub-symbol v
	// at stride position p: the masks themselves when a cycle takes
	// sub-symbols, what a byte's class is found from otherwise.
	val := make([]uint64, S*dom*nw)
	succ := bitvec.NewCSRBuilder(ns, ns)
	var even, anchored []int
	for i := range n.States {
		s := &n.States[i]
		for _, t := range s.Out {
			succ.Set(int(t))
		}
		succ.EndRow()
		switch s.Start {
		case automata.StartAllInput:
			c.startOdd.add(i)
		case automata.StartOfData:
			anchored = append(anchored, i)
		case automata.StartEven:
			even = append(even, i)
		}
		if s.Report {
			c.reporting.Set(i)
		}
		if dims, ok := decompose(s.Match, S); ok {
			w, bit := i>>6, uint64(1)<<(uint(i)&63)
			for p := 0; p < S; p++ {
				for k, word := range dims[p] {
					for ; word != 0; word &= word - 1 {
						v := k<<6 | bits.TrailingZeros64(word)
						val[(p*dom+v)*nw+w] |= bit
					}
				}
			}
		} else {
			c.residual = append(c.residual, automata.StateID(i))
		}
	}
	if n.Bits*S%8 == 0 {
		bc := automata.ByteClassesOf(n.Bits, S, nw, val)
		c.unitBits, c.units, c.classOf, c.masks = 8, len(bc.Of), bc.Of, bc.Cols
		c.nclass = make([]int, c.units)
		for q, r := range bc.Rep {
			c.nclass[q] = len(r)
		}
	} else {
		c.classOf, c.masks, c.nclass = make([][256]uint8, S), make([][]uint64, S), make([]int, S)
		for p := range S {
			copy(c.classOf[p][:], identity[:])
			c.masks[p], c.nclass[p] = val[p*dom*nw:][:dom*nw], dom
		}
	}
	c.gate = c.reporting
	if watch.Any() {
		c.gate = bitvec.NewWords(ns)
		for w := range c.gate {
			c.gate[w] = c.reporting[w] | watch[w]
		}
	}
	c.succ = succ.Build()
	c.startEven = c.startOdd.with(ns, even)
	c.startFirst = c.startEven.with(ns, anchored)
	c.images = make([]image, 1)
	c.lookUp()
	c.pool = NewPool(func() Core { return c.NewEngine() })
	return c
}

// identity maps every symbol to itself: the classes of a cycle that takes
// sub-symbols.
var identity = func() (id [256]uint8) {
	for v := range id {
		id[v] = uint8(v)
	}
	return id
}()

// image is what a stable start vector does on a class tuple of a cycle,
// whatever the cycle before left active: the start states the tuple
// activates, and for the cycle after, the OR of their successor rows and
// what of it can matter there. A cycle that looks its tuple's image up reads
// a word or two where a sweep ANDs every start word (CompiledEngine.StepBlock).
type image struct {
	// hit and succ are spans of Compiled.imageWords: the words of the start
	// states the tuple activates, and of the OR of their successor rows.
	hit, succ span
	// count is the states hit names; beyond the states of succ outside the
	// start vector of the cycle after, the other parity's.
	count, beyond int32
	// reports is non-zero when a state of hit is in Compiled.gate: it reports
	// or is watched.
	reports uint64
	// accepts is where the image's accepted classes start in
	// Compiled.acceptWords: per symbol of the cycle, acceptStride words with
	// a bit per class that some state of succ accepts there — every bit when
	// succ holds a residual state, which no mask names. A cycle whose class
	// at some position is not among them activates none of succ. A cycle of
	// one symbol checks its class against a second copy of the first's.
	accepts int32
}

// span is the words [lo, hi) of Compiled.imageWords.
type span struct{ lo, hi int32 }

// wordBits is one non-zero word of an image's vector: bits at word w.
type wordBits struct {
	bits uint64
	w    int32
}

// imageAcceptWords is the most accepted-class words an image holds, and
// minImageBudget the budget of an automaton whose mask tables are smaller.
const imageAcceptWords, minImageBudget = 8, 1 << 10

// lookUp builds the images of the odd and the even start vector, when a
// cycle is one or two symbols and neither vector holds a residual state.
// Their hit and successor words are held to the mask tables' words, and
// their accepted classes too, so that an automaton whose start states are
// many and wide falls back to sweeping its start words instead of growing
// tables past the masks'. Snort at 4-bit × 4 keeps 151 images of 752 words
// at scale 0.02 (5,148 mask words), 538 of 10,395 at 0.1 (25,080) and 1,194
// of 56k at 0.25 (62,304), and falls back at 1.0. A budget of
// minImageBudget words at least keeps a small automaton's images, which
// outweigh its masks. The build is flat: its tables double from an eighth
// of the budget, and it keeps a copy of what it filled, a bounded number of
// allocations whatever the automaton. It refuses before it ORs any successor
// row when the hit words and a floor on the successor words already pass the
// budget (imageBuilder.build), as Snort at 1.0 does.
func (c *Compiled) lookUp() {
	if c.units > 2 {
		return
	}
	odd, even := c.startOdd, c.startEven
	for _, id := range c.residual {
		if even.Bits.Get(int(id)) { // the even vector holds the odd one
			return
		}
	}
	b := newImageBuilder(c)
	if b.build(odd, even) && (even == odd || b.build(even, odd)) {
		c.images, c.imageWords, c.acceptWords = trim(c.images), trim(c.imageWords), trim(c.acceptWords)
		return
	}
	for _, v := range [...]*startVector{odd, even} {
		v.rowAt, v.colOf, v.pair = nil, nil, nil
	}
	c.images, c.imageWords, c.acceptWords = make([]image, 1), nil, nil
}

// imageBuilder interns the images of Compiled.lookUp, by a hash of their hit
// words, in flat tables it owns for the build.
type imageBuilder struct {
	c *Compiled
	// budget bounds the images' words and their accepted classes' words,
	// most the images.
	budget, most int
	// sw lists the words the vector's summary names.
	sw []int32
	// A tuple's hit is its first class's row ANDed with its last class's
	// column: the vector's start words after that class alone. rowOf and
	// colOf number each class's among the distinct ones, -1 when it is all
	// zero; rows holds the distinct rows side by side, a word per start word,
	// and cols the distinct columns' non-zero words (w the start word's
	// index in sw), column k's from colAt[k] to colAt[k+1].
	rowOf, colOf []int32
	rows         []uint64
	cols         []wordBits
	colAt        []int32
	// hit holds a tuple's non-zero hit words while it is interned.
	hit []wordBits
	// slots holds image numbers by a hash of their hit words, 0 when free.
	slots []int32
	// hits and succ are an image's hit states and their successors, while it
	// is built.
	hits, succ bitvec.Frontier
	// floor is the words the images hold at least: their hit words, and for
	// each, a successor word per distinct word its hit states' first
	// successors lie in. firstSucc[i] is that word for start state i, plus
	// one, 0 when i has no successor; seen[w] is the image that last counted
	// word w, 0 for none.
	floor           int
	firstSucc, seen []int32
	// acceptOf[i] is the index in accepted of the classes state i accepts,
	// plus one; 0 until an image's successors first hold i.
	acceptOf []int32
	accepted [][2][4]uint64
}

func newImageBuilder(c *Compiled) *imageBuilder {
	ns := c.nfa.NumStates()
	b := &imageBuilder{c: c, budget: minImageBudget}
	words := 0
	for _, m := range c.masks {
		words += len(m)
	}
	b.budget = max(b.budget, words)
	// No more images than the budget holds, and no more than tuples: a table
	// of twice that many slots stays half empty.
	b.most = min(b.budget/imageAcceptWords, 1<<16-1)
	starts := c.startEven.Sum.Count() // the even vector holds the odd one
	first, last := c.nclass[0], c.nclass[c.units-1]
	size := 16
	for size < 2*min(first*last, b.most) {
		size <<= 1
	}
	// The scratch is three allocations, one per element type.
	u64 := make([]uint64, 2*bitvec.FrontierWords(ns)+first*starts)
	b.hits, u64 = bitvec.CarveFrontier(u64, ns)
	b.succ, u64 = bitvec.CarveFrontier(u64, ns)
	b.rows = u64[:0]
	i32 := make([]int32, starts+first+2*last+1+size+3*ns+c.words)
	b.sw, i32 = i32[:0:starts], i32[starts:]
	b.rowOf, b.colOf, i32 = i32[:first], i32[first:first+last], i32[first+last:]
	b.colAt, i32 = i32[:1:last+1], i32[last+1:]
	b.slots, i32 = i32[:size], i32[size:]
	b.acceptOf, b.firstSucc, b.seen = i32[:ns], i32[ns:2*ns], i32[2*ns:]
	c.startEven.Bits.ForEach(func(i int) {
		if out := c.nfa.States[i].Out; len(out) != 0 {
			b.firstSucc[i] = int32(slices.Min(out))>>6 + 1
		}
	})
	wb := make([]wordBits, starts+last*starts)
	b.hit, b.cols = wb[:0:starts], wb[starts:starts]
	b.accepted = make([][2][4]uint64, 0, b.most/8+1)
	// The tables start at an eighth of what the budget allows and double, so
	// that a small set of images costs a small build.
	c.acceptStride = (max(first, last) + 63) / 64
	c.images = make([]image, 1, b.budget/imageAcceptWords/8+1)
	c.imageWords = make([]wordBits, 0, b.budget/8)
	c.acceptWords = make([]uint64, 2*c.acceptStride, b.budget/8)
	return b
}

// accepts sets acc[q] to the classes of the cycle's q-th symbol that state
// i accepts there — every class when i is a residual state, which no mask
// names. A decomposable state's match set is the product of its projections,
// so the classes are those of the values their product makes on the
// symbol's sub-symbols: a literal byte's state takes one step a symbol,
// where reading the mask tables would take a load per class.
func (b *imageBuilder) accepts(i int, acc *[2][4]uint64) {
	c := b.c
	if slices.Contains(c.residual, automata.StateID(i)) {
		*acc = [2][4]uint64{{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}, {^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}}
		return
	}
	var proj [8]bitvec.ByteSet // a cycle of one or two symbols has at most 8 sub-symbols
	for _, r := range c.nfa.States[i].Match {
		if !r.Empty() {
			for p, d := range r {
				proj[p] = proj[p].Union(d)
			}
		}
	}
	per := c.nfa.Stride / c.units // sub-symbols a symbol
	for q := range c.units {
		ps, values := proj[q*per:][:per], 1
		for _, d := range ps {
			values *= d.Count()
		}
		if values <= c.nclass[q] {
			b.classes(q, ps, 0, &acc[q])
			continue
		}
		// A wide state (a mesh's any-symbol state) names more values than
		// there are classes: its bit in each class's mask word is cheaper.
		m, w, bit := c.masks[q], i>>6, uint64(1)<<(i&63)
		for k := range c.nclass[q] {
			if m[k*c.words+w]&bit != 0 {
				acc[q][k>>6] |= 1 << (k & 63)
			}
		}
	}
}

// classes ORs into acc the classes at the cycle's q-th symbol of the values
// whose sub-symbols lie in proj, u holding the sub-symbols before them.
func (b *imageBuilder) classes(q int, proj []bitvec.ByteSet, u int, acc *[4]uint64) {
	if len(proj) == 0 {
		k := b.c.classOf[q][u]
		acc[k>>6] |= 1 << (k & 63)
		return
	}
	for w, word := range proj[0] {
		for ; word != 0; word &= word - 1 {
			b.classes(q, proj[1:], u<<b.c.nfa.Bits|w<<6|bits.TrailingZeros64(word), acc)
		}
	}
}

// trim returns s, or a copy of it without the room past its length when
// that is more than an eighth of its length: the tables stay resident.
func trim[T any](s []T) []T {
	if cap(s)-len(s) > len(s)/8 {
		return slices.Clone(s)
	}
	return s
}

// room returns s with room for n more elements, its capacity doubled as
// often as that takes: a table grows in a few steps, whatever its size.
func room[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	c := max(cap(s), 1)
	for c < len(s)+n {
		c *= 2
	}
	return append(make([]T, 0, c), s...)
}

// build fills v's image table, the images of its class tuples, each counting its
// successors beyond next, the vector of the cycle after; false when the
// images outgrow the budget. It interns every tuple's hit words first, with
// the floor on the words the images will hold, and refuses as soon as that
// passes the budget; only then does it OR each image's successor rows, the
// bulk of the build.
func (b *imageBuilder) build(v, next *startVector) bool {
	c := b.c
	b.sw = b.sw[:0]
	for sw, s := range v.Sum {
		for ; s != 0; s &= s - 1 {
			b.sw = append(b.sw, int32(sw<<6|bits.TrailingZeros64(s)))
		}
	}
	n := len(b.sw)
	// A cycle of one symbol has one row, the vector itself, for its one
	// class (which the kernel looks up as the tuple's first and second).
	rowOf, rows := b.rowOf, b.rows[:0]
	if c.units == 2 {
		rows = b.distinctRows(v)
	} else {
		for _, w := range b.sw {
			rows = append(rows, v.Bits[w])
		}
		for k := range rowOf {
			rowOf[k] = int32(min(n, 1) - 1)
		}
	}
	b.distinctCols(v)
	nr, nc := len(rows)/max(n, 1), len(b.colAt)-1
	// pair holds the image of each distinct (row, column) behind an all-zero
	// row and column, which the classes that hit no start state share.
	at := make([]int32, len(rowOf)+len(b.colOf))
	rowAt, colOf := at[:len(rowOf)], at[len(rowOf):]
	pair := make([]uint16, (nr+1)*(nc+1))
	clear(b.slots)
	fresh := len(c.images)
	for r := range nr {
		row := rows[r*n:][:n]
		id := uint16(0)
		for k := range nc {
			b.hit = b.hit[:0]
			for _, x := range b.cols[b.colAt[k]:b.colAt[k+1]] {
				if h := row[x.w] & x.bits; h != 0 {
					b.hit = append(b.hit, wordBits{h, b.sw[x.w]})
				}
			}
			// A row's neighbouring columns mostly hit the same states: no
			// hash, no probe.
			switch {
			case len(b.hit) == 0:
				id = 0
			case id == 0 || !slices.Equal(b.c.imageWords[b.c.images[id].hit.lo:b.c.images[id].hit.hi], b.hit):
				if id = b.intern(); id == 0 {
					return false
				}
			}
			pair[(r+1)*(nc+1)+k+1] = id
		}
	}
	for id := fresh; id < len(c.images); id++ {
		if b.add(&c.images[id], next); len(c.imageWords) > b.budget {
			return false
		}
	}
	for k, r := range rowOf {
		rowAt[k] = (r + 1) * int32(nc+1)
	}
	for k, j := range b.colOf {
		colOf[k] = j + 1
	}
	v.rowAt, v.colOf, v.pair = rowAt, colOf, pair
	return true
}

// distinctRows numbers in rowOf the distinct non-zero start words of v after
// each class of the cycle's first symbol, in order of first sight, and
// returns them side by side.
func (b *imageBuilder) distinctRows(v *startVector) []uint64 {
	n, m, rows := len(b.sw), b.c.masks[0], b.rows[:0]
	for k := range b.rowOf {
		at := len(rows)
		var any uint64
		for _, w := range b.sw {
			x := v.Bits[w] & m[k*b.c.words+int(w)]
			rows = append(rows, x)
			any |= x
		}
		b.rowOf[k] = -1
		if any == 0 {
			rows = rows[:at]
			continue
		}
		for j := 0; j < at; j += n {
			if slices.Equal(rows[j:j+n], rows[at:]) {
				b.rowOf[k], rows = int32(j/n), rows[:at]
				break
			}
		}
		if b.rowOf[k] < 0 {
			b.rowOf[k] = int32(at / n)
		}
	}
	return rows
}

// distinctCols numbers in colOf the distinct non-zero start words of v after
// each class of the cycle's last symbol, in order of first sight, and keeps
// their non-zero words in cols.
func (b *imageBuilder) distinctCols(v *startVector) {
	m := b.c.masks[b.c.units-1]
	b.cols, b.colAt = b.cols[:0], b.colAt[:1]
	for k := range b.colOf {
		at := len(b.cols)
		for i, w := range b.sw {
			if x := v.Bits[w] & m[k*b.c.words+int(w)]; x != 0 {
				b.cols = append(b.cols, wordBits{x, int32(i)})
			}
		}
		b.colOf[k] = -1
		if len(b.cols) == at {
			continue
		}
		for j := range len(b.colAt) - 1 {
			if slices.Equal(b.cols[b.colAt[j]:b.colAt[j+1]], b.cols[at:]) {
				b.colOf[k], b.cols = int32(j), b.cols[:at]
				break
			}
		}
		if b.colOf[k] < 0 {
			b.colOf[k] = int32(len(b.colAt) - 1)
			b.colAt = append(b.colAt, int32(len(b.cols)))
		}
	}
}

// intern returns the number of the image of b.hit, adding it with its hit
// words if it is new; 0 when adding it takes the images or their floor past
// the budget.
func (b *imageBuilder) intern() uint16 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, x := range b.hit {
		h = (h ^ x.bits ^ uint64(x.w)<<40) * 0x9E3779B97F4A7C15
	}
	c, mask := b.c, len(b.slots)-1
	i := int(h>>40) & mask
	for ; b.slots[i] != 0; i = (i + 1) & mask {
		if id := b.slots[i]; slices.Equal(c.imageWords[c.images[id].hit.lo:c.images[id].hit.hi], b.hit) {
			return uint16(id)
		}
	}
	if len(c.images) >= b.most {
		return 0
	}
	id := int32(len(c.images))
	img := image{hit: span{lo: int32(len(c.imageWords))}}
	c.imageWords = append(room(c.imageWords, len(b.hit)), b.hit...)
	img.hit.hi = int32(len(c.imageWords))
	b.floor += len(b.hit)
	for _, x := range b.hit {
		img.count += int32(bits.OnesCount64(x.bits))
		img.reports |= x.bits & c.gate[x.w]
		for word := x.bits; word != 0; word &= word - 1 {
			if w := b.firstSucc[int(x.w)<<6|bits.TrailingZeros64(word)] - 1; w >= 0 && b.seen[w] != id {
				b.seen[w] = id
				b.floor++
			}
		}
	}
	if b.floor > b.budget {
		return 0
	}
	b.slots[i] = id
	c.images = append(room(c.images, 1), img)
	return uint16(id)
}

// add appends the successor words of img, counted beyond next, and its
// accepted classes.
func (b *imageBuilder) add(img *image, next *startVector) {
	c := b.c
	var accepts [2][4]uint64
	for _, x := range c.imageWords[img.hit.lo:img.hit.hi] {
		b.hits.Bits[x.w] = x.bits
		b.hits.Sum[x.w>>6] |= 1 << (uint(x.w) & 63)
	}
	c.succ.OrRowsInto(&b.hits, &b.succ)
	img.succ.lo = int32(len(c.imageWords))
	succ := 0
	for _, s := range b.succ.Sum {
		succ += bits.OnesCount64(s)
	}
	c.imageWords = room(c.imageWords, succ)
	for sw, s := range b.succ.Sum {
		for ; s != 0; s &= s - 1 {
			w := sw<<6 | bits.TrailingZeros64(s)
			x := b.succ.Bits[w]
			c.imageWords = append(c.imageWords, wordBits{x, int32(w)})
			img.beyond += int32(bits.OnesCount64(x &^ next.Bits[w]))
		}
	}
	img.succ.hi = int32(len(c.imageWords))
	for _, x := range c.imageWords[img.succ.lo:img.succ.hi] {
		for word := x.bits; word != 0; word &= word - 1 {
			i := int(x.w)<<6 | bits.TrailingZeros64(word)
			if b.acceptOf[i] == 0 {
				var acc [2][4]uint64
				b.accepts(i, &acc)
				b.accepted = append(room(b.accepted, 1), acc)
				b.acceptOf[i] = int32(len(b.accepted))
			}
			for q, acc := range &b.accepted[b.acceptOf[i]-1] {
				for j, a := range acc {
					accepts[q][j] |= a
				}
			}
		}
	}
	if c.units == 1 {
		accepts[1] = accepts[0]
	}
	img.accepts = int32(len(c.acceptWords))
	c.acceptWords = room(c.acceptWords, 2*c.acceptStride)
	for q := range accepts {
		c.acceptWords = append(c.acceptWords, accepts[q][:c.acceptStride]...)
	}
	b.hits.Clear()
	b.succ.Clear()
}

// startVector is the set of states enabled on a class of cycles whatever
// the previous cycle left active, with its size.
type startVector struct {
	bitvec.Frontier
	count int
	// pair[rowAt[first]+colOf[second]] is the index in Compiled.images of
	// what the vector does on a tuple of a cycle's first and second classes
	// (a cycle of one symbol: its class twice), 0 when it activates nothing.
	// pair is nil on the first cycle's vector, on a cycle of more than two
	// symbols, on a vector that holds a residual state (no mask names it) and
	// past the images' budget (Compiled.lookUp).
	rowAt, colOf []int32
	pair         []uint16
}

func (v *startVector) add(i int) {
	v.Set(i)
	v.count++
}

// with returns v with the given states added — v itself when there are none
// to add.
func (v *startVector) with(ns int, states []int) *startVector {
	if len(states) == 0 {
		return v
	}
	g := &startVector{Frontier: bitvec.NewFrontier(ns), count: v.count}
	copy(g.Bits, v.Bits)
	copy(g.Sum, v.Sum)
	for _, i := range states {
		g.add(i)
	}
	return g
}

// decompose returns per-position symbol sets D with m = D[0]×…×D[S-1] when
// the match set is such a cartesian product (position-decomposable), which
// is exactly the shape one capsule's per-dimension columns can express. A
// single rect is trivially a product; a union of rects is one iff it equals
// the product of its per-position projections.
func decompose(m automata.MatchSet, S int) (automata.Rect, bool) {
	// The common case, one non-empty rect, allocates nothing.
	var lone automata.Rect
	count := 0
	for _, r := range m {
		if !r.Empty() {
			lone = r
			count++
		}
	}
	if count == 1 {
		return lone, true
	}
	nonEmpty := make(automata.MatchSet, 0, len(m))
	for _, r := range m {
		if !r.Empty() {
			nonEmpty = append(nonEmpty, r)
		}
	}
	prod := make(automata.Rect, S)
	for p := range prod {
		var u bitvec.ByteSet
		for _, r := range nonEmpty {
			u = u.Union(r[p])
		}
		prod[p] = u
	}
	// m ⊆ product holds by construction; m is decomposable iff product ⊆ m.
	if (automata.MatchSet{prod}).SubsetOf(nonEmpty) {
		return prod, true
	}
	return nil, false
}

// NFA returns the automaton this form was compiled from.
func (c *Compiled) NFA() *automata.NFA { return c.nfa }

// ResidualStates returns the number of states matched on the scalar
// fallback path (non-position-decomposable match sets).
func (c *Compiled) ResidualStates() int { return len(c.residual) }

// CompiledEngine executes a shared Compiled form over input streams. It
// owns only per-stream buffers, so creating one per goroutine is cheap; it
// implements the Core step interface and is reusable across runs but not
// safe for concurrent use.
//
// The state vectors are bitvec.Frontiers: each stays a valid dense
// bit-vector (every word its summary does not name is zero), which is all a
// lane or a Tracer may rely on, while the kernel itself reads and writes
// only summary-named words.
type CompiledEngine struct {
	c *Compiled
	// enabled is the enable vector; act holds the active vectors of the
	// cycle in progress, act[cur], and of the one before it.
	enabled bitvec.Frontier
	act     [2]bitvec.Frontier
	cur     int
	// prevCount is the number of states the previous cycle left active.
	prevCount int
	// Between cycles enabled holds exactly the start vector seeded, nothing
	// when seeded is nil — after a cycle that looked its start vector up.
	// Within a cycle touched names the words successor rows ORed into, and
	// the cycle ends by putting those few words back — so no cycle rebuilds
	// the vector. touched shares enabled's bits and has a summary of its own.
	seeded  *startVector
	touched bitvec.Frontier
	// prevImage is the image the previous cycle looked up (Compiled.images),
	// 0 after a cycle that swept its start vector.
	prevImage uint16
	// lane, when non-nil, runs between the match phase and the report gate.
	lane func(t int)
	// off holds a cycle's mask offsets when it takes more than two symbols,
	// and sym a residual state's sub-symbols when it takes bytes.
	off []int
	sym []byte
}

// NewEngine allocates per-stream state for executing the compiled
// automaton: the vectors and their summaries share one allocation.
func (c *Compiled) NewEngine() *CompiledEngine {
	ns := c.nfa.NumStates()
	e := &CompiledEngine{c: c}
	buf := make([]uint64, 3*bitvec.FrontierWords(ns)+len(c.startOdd.Sum))
	e.enabled, buf = bitvec.CarveFrontier(buf, ns)
	e.act[0], buf = bitvec.CarveFrontier(buf, ns)
	e.act[1], buf = bitvec.CarveFrontier(buf, ns)
	e.touched = bitvec.Frontier{Bits: e.enabled.Bits, Sum: buf}
	if c.units > 2 {
		e.off = make([]int, c.units)
	}
	if len(c.residual) != 0 && c.unitBits != c.nfa.Bits {
		e.sym = make([]byte, 0, c.nfa.Stride)
	}
	return e
}

// NewSession returns a streaming session over the compiled form. Many
// sessions may run concurrently over one Compiled; each owns its buffers.
func (c *Compiled) NewSession(sink ReportSink) *Session {
	return NewSession(c.NewEngine(), sink)
}

// Run executes the compiled automaton over input on a pooled engine and
// returns the sorted reports and stats. It is safe for concurrent use —
// the one-shot entry point a server calls per request without paying a
// fresh engine allocation in steady state.
func (c *Compiled) Run(input []byte) ([]Report, Stats) { return c.pool.Run(input) }

// AppendRun is Run appending its reports to dst (Pool.AppendRun).
func (c *Compiled) AppendRun(dst []Report, input []byte) ([]Report, Stats) {
	return c.pool.AppendRun(dst, input)
}

// Geometry implements Core: bytes, bits·stride/8 a cycle, when a cycle of
// the automaton is whole bytes, its sub-symbols otherwise.
func (e *CompiledEngine) Geometry() (bits, stride int) { return e.c.unitBits, e.c.units }

// ResetState implements Core: it clears the inter-cycle active set. The
// other two vectors are cleared with it, so an engine that stopped
// mid-stream holds nothing of that stream.
func (e *CompiledEngine) ResetState() {
	e.enabled.Clear()
	e.act[0].Clear()
	e.act[1].Clear()
	e.touched.Sum.ClearAll()
	e.seeded = nil
	e.prevCount, e.prevImage = 0, 0
}

// SetLane attaches a lane beside the kernel: between the state-match phase
// and the report gate StepBlock calls lane(t), which may read ActiveSet,
// PrevActive and Starts and decide what the sink it passed to StepBlock lets
// through (internal/score's max-plus pass rides here). A kernel compiled
// with a watch set (CompileWatching) calls it only on the cycles on which a
// watched state is active or a report fires, and on every cycle a tracer
// watches; another kernel on every cycle it steps whole — not on a run of
// start-only cycles it steps by image number (StepBlock). nil detaches it.
func (e *CompiledEngine) SetLane(lane func(t int)) { e.lane = lane }

// startFor returns the start-enable vector of cycle t.
func (e *CompiledEngine) startFor(t int) *startVector {
	switch {
	case t&1 != 0:
		return e.c.startOdd
	case t == 0:
		return e.c.startFirst
	}
	return e.c.startEven
}

// StepBlock implements Core: the bit-parallel datapath over the whole cycles
// of subs, visiting only the words a summary or an image names. The cycle
// loop is this function, so what one cycle hands the next — which vector is
// active, how many states the last cycle left active, the image it looked up,
// the seeded start vector — rides in locals and goes back to the engine once
// per block (which flip is current also on the cycles a lane or a tracer
// looks). The phases stay in one body — split into a method per phase the same
// loops measured 8–10% slower per byte on the Snort automaton — and every
// geometry, summary length, lane, residual list and tracer takes this one body.
//
// A cycle past the first whose start vector keeps images looks its class
// tuple's image up (image): its active set is the image's hit words ORed
// with the states the previous cycle's successor rows enable outside the
// start vector and the cycle's masks accept — the carried states — so no
// start word is swept. Those rows are the previous image's successor words,
// read from the table, when every state the previous cycle left active was a
// start state it hit; else the rows of the whole previous active set. And
// when the previous image's successors accept none of the cycle's class at
// some position, no successor can be active: the OR is skipped and the cycle
// adds the image's count of them beyond the start vector to its enabled
// states, so Stats stays exact. On such a cycle the enable vector holds only
// the successor words ORed into it, nothing between cycles. The first cycle
// of a stream, with its own start vector, a cycle of more than two symbols, a
// start vector holding a residual state and any cycle a tracer watches seed
// the enable vector with the start vector and sweep its words.
//
// A cycle after one whose active states were exactly its image's hit states
// (or nothing) is a function of that image and its own tuple whenever the
// image's successors reject the tuple at some position: its active states
// are its tuple's image, and it enables its start vector and the image's
// successors beyond it. Such cycles are stepped in a run by image number
// alone, touching no vector and adding only their counts to Stats, until a
// cycle whose previous image's successors accept its tuple, or whose image
// holds a state of the gate, is stepped whole. A quiescent cycle, image 0
// after image 0, is the run's cheapest step. When a run ends, at such a
// cycle or at the block's end, the previous active vector is rebuilt as the
// run's last image, so that PrevActive, the dense-valid invariant, the
// successor rows and the next block see the last active set; the current one
// needs nothing, as the next match pass clears the words its summary names.
// A lane is not called on a run's cycles, on which no state of the gate is
// active.
func (e *CompiledEngine) StepBlock(subs []byte, t0 int, limitBits int, sink ReportSink, tracer Tracer) (enabled, active int64, peak int) {
	c := e.c
	n := c.nfa
	U, A := c.units, c.acceptStride
	cm := c.classOf[:U]
	masks, nw := c.masks, c.words
	m0, m1 := masks[0], masks[U-1]
	reporting, gate := c.reporting, c.gate
	en, enSum := e.enabled.Bits, e.enabled.Sum
	touched := e.touched.Sum
	cur, prevCount := e.cur&1, e.prevCount
	act, actSum := e.act[cur].Bits, e.act[cur].Sum
	seeded := e.seeded

	extras := len(c.residual) != 0 || e.lane != nil && !c.watching || tracer != nil
	odd, even := c.startOdd, c.startEven
	looks := odd.pair != nil && even.pair != nil && tracer == nil
	images, iw, aw := c.images, c.imageWords, c.acceptWords
	prev := e.prevImage

	for t := t0; len(subs) >= U; t, subs = t+1, subs[U:] {
		if looks && t != 0 && prevCount == int(images[prev].count) {
			from := prev
			for ; len(subs) >= U; t, subs = t+1, subs[U:] {
				v := odd
				if t&1 == 0 {
					v = even
				}
				k0, k1 := cm[0][subs[0]], cm[U-1][subs[U-1]]
				ne := v.count
				if prev != 0 {
					p := &images[prev]
					if a := aw[p.accepts:]; a[k0>>6]>>(k0&63)&(a[A+int(k1>>6)]>>(k1&63))&1 != 0 {
						break
					}
					ne += int(p.beyond)
				}
				nx, na := v.pair[v.rowAt[k0]+v.colOf[k1]], 0
				if nx != 0 {
					x := &images[nx]
					if x.reports != 0 {
						break
					}
					na = int(x.count)
					peak = max(peak, na)
				}
				enabled += int64(ne)
				active += int64(na)
				prev, prevCount = nx, na
			}
			if prev != from {
				// The previous active vector becomes the run's last image.
				pa, paSum := e.act[cur^1].Bits, e.act[cur^1].Sum
				for sw, s := range paSum {
					for ; s != 0; s &= s - 1 {
						pa[sw<<6|bits.TrailingZeros64(s)] = 0
					}
					paSum[sw] = 0
				}
				for _, x := range iw[images[prev].hit.lo:images[prev].hit.hi] {
					pa[x.w] = x.bits
					paSum[x.w>>6] |= 1 << (uint(x.w) & 63)
				}
			}
			if len(subs) < U {
				break
			}
		}
		chunk := subs[:U]
		start := odd
		if t&1 == 0 {
			start = even
			if t == 0 {
				start = c.startFirst
			}
		}
		// A cycle of one symbol takes its class as the tuple's second too,
		// and ANDs its mask twice rather than take a branch.
		k0, k1 := int(cm[0][chunk[0]]), int(cm[U-1][chunk[U-1]])
		o0, o1 := k0*nw, k1*nw
		if U > 2 {
			for q, v := range chunk {
				e.off[q] = int(cm[q][v]) * nw
			}
		}

		// State-transition phase. A swept cycle: the enable vector is the
		// start-enable vector of this cycle ORed with the successor rows of
		// every previously active state; between swept cycles it holds the
		// seeded start vector exactly, so there is nothing to rebuild unless
		// the start vector itself changes. A looked-up cycle: the successor
		// rows alone, unless none of them can be active this cycle. keep is
		// what of the start vector the enable vector holds between cycles,
		// seed the start words the match pass walks and drop the enabled
		// start states it leaves to the image.
		var img *image
		keep, seed, drop := ^uint64(0), start.Sum, c.none.Bits
		rowed := true
		if looks && t != 0 {
			if seeded != nil {
				for sw, s := range seeded.Sum {
					for ; s != 0; s &= s - 1 {
						en[sw<<6|bits.TrailingZeros64(s)] = 0
					}
				}
				seeded = nil
			}
			keep, seed, drop = 0, c.none.Sum, start.Bits
			p := &images[prev]
			switch a := aw[p.accepts:]; {
			case prevCount != int(p.count): // a carried state: all the rows
				c.succ.OrRowsInto(&e.act[cur^1], &e.touched)
			case a[k0>>6]>>(k0&63)&(a[A+k1>>6]>>(k1&63))&1 != 0:
				for _, x := range iw[p.succ.lo:p.succ.hi] {
					en[x.w] |= x.bits
					touched[x.w>>6] |= 1 << (uint(x.w) & 63)
				}
			default:
				enabled += int64(p.beyond)
				rowed = false
			}
			prev = start.pair[start.rowAt[k0]+start.colOf[k1]]
			img = &images[prev]
		} else {
			if start != seeded {
				for sw, s := range start.Sum {
					for s |= enSum[sw]; s != 0; s &= s - 1 {
						w := sw<<6 | bits.TrailingZeros64(s)
						en[w] = start.Bits[w]
					}
				}
				seeded = start
			}
			if prevCount != 0 {
				c.succ.OrRowsInto(&e.act[cur^1], &e.touched)
			}
			prev = 0
		}

		na := 0
		var hits uint64

		// State-match phase, one pass per summary word over the live words
		// (the seeded start words and the touched ones): active = enabled ∧¬
		// drop ∧ mask[0][class of chunk[0]] ∧ … and its summary, then over
		// the words that came out non-zero — few of the live ones — their
		// popcount and whether a state of the gate is in them. The words the
		// active vector still names from two cycles ago are walked as well:
		// off the live set the enable vector is zero, so they come out zero
		// here instead of in a sweep of their own — or, on a looked-up cycle
		// that ORed no rows and so has no live word, in a clearing sweep. A
		// looked-up cycle then ORs in its image's hit words.
		for sw, rw := range touched {
			if !rowed {
				for s := actSum[sw]; s != 0; s &= s - 1 {
					act[sw<<6|bits.TrailingZeros64(s)] = 0
				}
				actSum[sw] = 0
				continue
			}
			s := seed[sw] | rw
			enSum[sw] = s
			s |= actSum[sw]
			var live uint64
			for ; s != 0; s &= s - 1 {
				b := bits.TrailingZeros64(s)
				w := sw<<6 | b
				x := en[w] &^ drop[w]
				if U <= 2 {
					x &= m0[o0+w] & m1[o1+w]
				} else {
					for q, o := range e.off {
						x &= masks[q][o+w]
					}
				}
				act[w] = x
				live |= (x | -x) >> 63 << (uint(b) & 63)
			}
			actSum[sw] = live
			for ; live != 0; live &= live - 1 {
				w := sw<<6 | bits.TrailingZeros64(live)
				na += bits.OnesCount64(act[w])
				hits |= act[w] & gate[w]
			}
		}
		if img != nil {
			for _, x := range iw[img.hit.lo:img.hit.hi] {
				act[x.w] |= x.bits
				actSum[x.w>>6] |= 1 << (uint(x.w) & 63)
			}
			na += int(img.count)
			hits |= img.reports
		}

		// Everything else a cycle can hold happens on few cycles or on few
		// engines, so the common cycle passes it all on one branch.
		if hits != 0 || extras {
			e.cur = cur // what Active and PrevActive read

			// Residual scalar path: non-decomposable match sets (no mask
			// names them, so none is active yet), matched on the cycle's
			// sub-symbols.
			if len(c.residual) != 0 {
				sym := chunk
				if e.sym != nil {
					sym = AppendSubSymbols(e.sym[:0], n.Bits, chunk)
				}
				for _, id := range c.residual {
					if en.Get(int(id)) && n.States[id].Match.Has(sym) {
						e.act[cur].Set(int(id))
						na++
						hits |= reporting[id>>6] & (1 << (uint(id) & 63))
					}
				}
			}

			if e.lane != nil {
				e.lane(t)
			}

			// Reporting, on the cycles that have a state of the gate active:
			// the active words on the reporting mask, then per bit.
			if hits != 0 {
				base := t * n.Stride
				for sw, s := range actSum {
					for ; s != 0; s &= s - 1 {
						w := sw<<6 | bits.TrailingZeros64(s)
						for word := act[w] & reporting[w]; word != 0; word &= word - 1 {
							i := w<<6 | bits.TrailingZeros64(word)
							st := &n.States[i]
							bitPos := (base + st.ReportOffset) * n.Bits
							if limitBits < 0 || bitPos <= limitBits {
								sink(Report{BitPos: bitPos, Code: st.ReportCode, State: automata.StateID(i)})
							}
						}
					}
				}
			}

			if tracer != nil {
				tracer.OnCycle(t, en, act)
			}
		}

		// Commit: the words the rows touched go back to what the enable
		// vector holds between cycles, and the bits the rows had added to
		// them beyond the start vector are what the cycle enabled beyond it
		// (enabled = start popcount + added bits: Stats stays exact without
		// a popcount of the vector).
		ne := start.count
		for sw, s := range touched {
			for ; s != 0; s &= s - 1 {
				w := sw<<6 | bits.TrailingZeros64(s)
				ne += bits.OnesCount64(en[w] &^ start.Bits[w])
				en[w] = start.Bits[w] & keep
			}
			touched[sw] = 0
		}
		enabled += int64(ne)
		active += int64(na)
		peak = max(peak, na)
		cur ^= 1
		act, actSum = e.act[cur].Bits, e.act[cur].Sum
		prevCount = na
	}
	e.cur, e.prevCount, e.seeded, e.prevImage = cur, prevCount, seeded, prev
	return enabled, active, peak
}

// ActiveSet returns the active set of the cycle in progress, its summary
// naming every non-zero word, and PrevActive the previous cycle's, for a
// lane (valid only inside the SetLane callback); both alias the engine's
// buffers and must not be retained or written.
func (e *CompiledEngine) ActiveSet() bitvec.Frontier { return e.act[e.cur&1] }
func (e *CompiledEngine) PrevActive() bitvec.Words   { return e.act[e.cur&1^1].Bits }

// Starts returns the states enabled as start candidates at cycle t,
// independent of any predecessor; it aliases the compiled form's tables and
// must not be written.
func (e *CompiledEngine) Starts(t int) bitvec.Words { return e.startFor(t).Bits }

// Run executes the compiled automaton over input and returns all reports
// sorted by (BitPos, Code, State) plus activity statistics. tracer may be
// nil. Reports and statistics are identical to the scalar Engine's.
func (e *CompiledEngine) Run(input []byte, tracer Tracer) ([]Report, Stats) {
	return RunBatch(e, input, 0, tracer)
}
