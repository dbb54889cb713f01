package automata

import (
	"slices"

	"impala/internal/bitvec"
)

// Classes is the sub-symbol partition of an automaton: at every stride
// position, the values no match-set rect tells apart. Every engine over the
// automaton, or over a sub-automaton of it (whose rects are a subset, so its
// own partition is coarser), steps the members of one class alike. A Classes
// is immutable.
type Classes struct {
	// Of[p][v] is the class of value v at position p, and Rep[p][c] the
	// smallest member of class c: classes are numbered in order of their
	// smallest member.
	Of, Rep [][]uint8
}

// ClassesOf returns the sub-symbol partition of n, a valid automaton.
func ClassesOf(n *NFA) *Classes {
	A := DomainSize(n.Bits)
	cl := &Classes{Of: make([][]uint8, n.Stride), Rep: make([][]uint8, n.Stride)}
	var seen []uint64 // the masks refined by already, when they fit 16 bits
	if A <= 16 {
		seen = make([]uint64, 1<<16/64)
	}
	var id [2 * 256]int16
	for p := range cl.Of {
		of, k := make([]uint8, A), 1
		clear(seen)
		var wide map[bitvec.ByteSet]bool
		if A > 16 {
			wide = map[bitvec.ByteSet]bool{}
		}
		for i := range n.States {
			for _, r := range n.States[i].Match {
				if k == A {
					break
				}
				m := r[p]
				if A <= 16 {
					key := uint16(m[0])
					if seen[key>>6]&(1<<(key&63)) != 0 {
						continue
					}
					seen[key>>6] |= 1 << (key & 63)
				} else {
					if wide[m] {
						continue
					}
					wide[m] = true
				}
				k = refine(of, m, k, &id)
			}
		}
		cl.Of[p], cl.Rep[p] = of, reps(of, k)
	}
	return cl
}

// ByteClasses is the joint partition of the bytes of a cycle that is whole
// bytes: at the cycle's q-th byte, the byte values no row of an acceptance
// table tells apart, a row accepting a byte when it accepts each of the
// byte's sub-symbols at its position. Over the states of an automaton it is
// coarser than the product of the positions' Classes (Snort at 4-bit × 4: 66
// classes a byte against 7 × 16), because a state that names a set of high
// nibbles names them for a set of low ones. A ByteClasses is immutable.
type ByteClasses struct {
	// Of[q][x] is the class of byte x at the cycle's q-th byte, Rep[q][c]
	// the smallest byte of class c, and Cols[q][c*words:][:words] the rows
	// that accept the bytes of class c there.
	Of   [][256]uint8
	Rep  [][]uint8
	Cols [][]uint64
}

// ByteClassesOf returns the joint byte partition of a cycle of stride
// sub-symbols of the given bits, which must make whole bytes, over
// accept[(p*dom+v)*words:][:words]: the rows, words·64 of them, that accept
// sub-symbol v at stride position p (dom = 1<<bits). A byte's column is the
// AND of its sub-symbols' columns, 64 rows a word, and equal columns are one
// class. The columns are interned twice, by a hash of the column: a
// position's values first, which gives each position's classes, then the
// tuples of those classes a byte can be (Snort: 7 × 16 = 112, not 256). It
// runs on every load, in a fixed number of allocations.
func ByteClassesOf(bits, stride, words int, accept []uint64) *ByteClasses {
	per, dom := 8/bits, DomainSize(bits)
	U := stride / per
	bc := &ByteClasses{Of: make([][256]uint8, U), Rep: make([][]uint8, U), Cols: make([][]uint64, U)}
	scratch, cols, reps := make([]uint64, (dom+1)*words), make([]uint64, 257*words), make([]uint8, U*256)
	var ids interner
	var of, first [4][256]uint8 // a value's class at the byte's j-th position, a class's smallest value
	var counts [4]int           // the classes at each position
	var joint [256]uint8        // a tuple's class, the tuple in mixed radix
	for q := range bc.Of {
		base := accept[q*per*dom*words:]
		tuples := 1
		for j := range per {
			ids.reset(scratch, words, dom)
			for v := range dom {
				copy(ids.next(), base[(j*dom+v)*words:][:words])
				c, fresh := ids.intern()
				if fresh {
					first[j][c] = uint8(v)
				}
				of[j][v] = uint8(c)
			}
			counts[j] = ids.n
			tuples *= ids.n
		}
		// The tuples in order, the last position fastest, so a class's first
		// tuple holds its smallest byte.
		ids.reset(cols, words, tuples)
		rep := reps[q*256:][:256]
		var digit [4]int
		for t := range tuples {
			col, x := ids.next(), 0
			for j := range per {
				v := int(first[j][digit[j]])
				x = x<<bits | v
				if j == 0 {
					copy(col, base[v*words:][:words])
					continue
				}
				for w, m := range base[(j*dom+v)*words:][:words] {
					col[w] &= m
				}
			}
			c, fresh := ids.intern()
			if fresh {
				rep[c] = uint8(x)
			}
			joint[t] = uint8(c)
			for j := per - 1; j >= 0; j-- {
				if digit[j]++; digit[j] < counts[j] {
					break
				}
				digit[j] = 0
			}
		}
		out := &bc.Of[q]
		switch per {
		case 1:
			for x := range out {
				out[x] = joint[of[0][x]]
			}
		case 2:
			for hi := range 16 {
				t := int(of[0][hi]) * counts[1]
				for lo, c := range of[1][:16] {
					out[hi<<4|lo] = joint[t+int(c)]
				}
			}
		default:
			for x := range out {
				t := 0
				for j := range per {
					t = t*counts[j] + int(of[j][x>>(8-bits*(j+1))&(dom-1)])
				}
				out[x] = joint[t]
			}
		}
		bc.Rep[q], bc.Cols[q] = rep[:ids.n:ids.n], slices.Clone(cols[:ids.n*words])
	}
	return bc
}

// interner numbers distinct columns of words uint64s in order of first
// sight, keeping them side by side in cols: the caller writes a column into
// next() and intern() returns its number, and whether it was new. slots
// holds number+1 by hash, 0 when free.
type interner struct {
	words, n, mask int
	zero           int // the all-zero column's number+1, 0 before it is seen
	last           int // the number of the column interned last
	cols           []uint64
	slots          [512]int16
}

// reset empties the interner for at most most columns, which cols has room
// for.
func (in *interner) reset(cols []uint64, words, most int) {
	in.cols, in.words, in.n, in.zero, in.last = cols, words, 0, 0, 0
	size := 16
	for size < 2*most {
		size <<= 1
	}
	in.mask = min(size, len(in.slots)) - 1
	clear(in.slots[:in.mask+1])
}

func (in *interner) next() []uint64 { return in.cols[in.n*in.words:][:in.words] }

func (in *interner) intern() (int, bool) {
	col := in.cols[in.n*in.words:][:in.words]
	if in.n > 0 && slices.Equal(col, in.cols[in.last*in.words:][:in.words]) {
		// Neighbouring bytes mostly share a class: no hash, no probe.
		return in.last, false
	}
	c, fresh := in.lookup(col)
	in.last = c
	return c, fresh
}

// lookup is intern past the last column's check.
func (in *interner) lookup(col []uint64) (int, bool) {
	h, or := uint64(0x9E3779B97F4A7C15), uint64(0)
	for _, m := range col {
		h = (h ^ m) * 0x9E3779B97F4A7C15
		or |= m
	}
	if or == 0 && in.zero > 0 {
		// Most bytes of a small automaton's cycle match no state: their
		// class costs no probe.
		return in.zero - 1, false
	}
	if or == 0 {
		in.zero = in.n + 1
	}
	i := int(h>>40) & in.mask
	for ; in.slots[i] != 0; i = (i + 1) & in.mask {
		c := int(in.slots[i] - 1)
		if in.words == 1 && in.cols[c] == col[0] || in.words != 1 && slices.Equal(in.cols[c*in.words:][:in.words], col) {
			return c, false
		}
	}
	in.slots[i] = int16(in.n + 1)
	in.n++
	return in.n - 1, true
}

// refine splits each of the k classes of of by membership in m, renumbering
// them in order of their smallest member, and returns the new count. id is
// scratch.
func refine(of []uint8, m bitvec.ByteSet, k int, id *[2 * 256]int16) int {
	for j := range id[:2*k] {
		id[j] = -1
	}
	k = 0
	for v := range of {
		key := int(of[v]) * 2
		if m.Has(byte(v)) {
			key++
		}
		if id[key] < 0 {
			id[key] = int16(k)
			k++
		}
		of[v] = uint8(id[key])
	}
	return k
}

// reps returns each of the k classes of of's smallest member.
func reps(of []uint8, k int) []uint8 {
	rep := make([]uint8, k)
	for v := len(of) - 1; v >= 0; v-- {
		rep[of[v]] = uint8(v)
	}
	return rep
}
