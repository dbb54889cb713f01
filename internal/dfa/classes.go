package dfa

import "impala/internal/automata"

// Classes is the sub-symbol partition of an automaton: at every stride
// position, the values no match-set rect tells apart, which every DFA over
// the automaton or over a sub-automaton of it steps alike (a sub-automaton's
// rects are a subset, so its own partition is coarser). Determinization
// computes one successor per class instead of per value, and a DFA whose
// cycle is whole bytes steps a byte per lookup when every byte of the cycle
// has at most 1<<bits classes — the products of its positions' classes — its
// rows then indexed by the byte's class. A Classes is immutable.
type Classes struct {
	bits, stride int
	// of[p][v] is the class of value v at position p, and rep[p][c] the
	// smallest member of class c: classes are numbered in order of their
	// smallest member.
	of, rep [][]uint8
	// step is how many sub-symbols a DFA over the automaton takes a lookup:
	// 8/bits when it steps bytes, 1 otherwise.
	step int
	// byteOf[q][x] is the class of byte x at the cycle's q-th byte, and
	// byteRep[q][c] the smallest byte of class c; both nil unless step > 1.
	byteOf  [][256]uint8
	byteRep [][]uint8
}

// ClassesOf returns the partition of the sub-symbols of n, a valid automaton
// (automata.ClassesOf, which the kernel's byte classes refine from the same
// rects), and the step a DFA over n takes: a byte a lookup when n's
// sub-symbols are narrower than a byte, a cycle is whole bytes and no byte of
// the cycle has more than 1<<bits classes.
func ClassesOf(n *automata.NFA) *Classes {
	sc := automata.ClassesOf(n)
	cl := &Classes{bits: n.Bits, stride: n.Stride, of: sc.Of, rep: sc.Rep, step: 1}
	if n.Bits < 8 && n.Bits*n.Stride%8 == 0 {
		cl.stepBytes()
	}
	return cl
}

// stepBytes makes cl step bytes when every byte of the cycle has at most
// 1<<bits classes: a byte's class is the mixed-radix number of its
// positions' classes, high sub-symbol first.
func (cl *Classes) stepBytes() {
	step, A := 8/cl.bits, 1<<cl.bits
	byteOf, byteRep := make([][256]uint8, cl.stride/step), make([][]uint8, cl.stride/step)
	for q := range byteOf {
		classes := 1
		for p := q * step; p < (q+1)*step; p++ {
			classes *= len(cl.rep[p])
		}
		if classes > A {
			return
		}
		byteRep[q] = make([]uint8, classes)
		for x := 255; x >= 0; x-- {
			c := 0
			for p := q * step; p < (q+1)*step; p++ {
				sh := 8 - cl.bits*(p-q*step+1)
				c = c*len(cl.rep[p]) + int(cl.of[p][x>>sh&(A-1)])
			}
			byteOf[q][x], byteRep[q][c] = uint8(c), uint8(x)
		}
	}
	cl.step, cl.byteOf, cl.byteRep = step, byteOf, byteRep
}

// Step returns how many sub-symbols a DFA over the automaton takes a lookup:
// 8/bits when it steps bytes, 1 when it steps sub-symbols.
func (cl *Classes) Step() int { return cl.step }
