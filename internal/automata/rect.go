// Package automata defines the automaton models used across the Impala
// toolchain: vector symbols (Rect), unions of vector symbols (MatchSet), and
// the homogeneous non-deterministic finite automaton (NFA) whose states are
// State Transition Elements (STEs).
//
// Every automaton is parameterized by Bits (bits per sub-symbol dimension: 8
// for the classic byte-oriented automata, 4 for Impala's squashed nibble
// automata) and Stride (sub-symbols consumed per cycle). A state's match rule
// is a MatchSet: a union of Rects, where each Rect is a cartesian product of
// per-dimension symbol sets — exactly the shape one Impala capsule (one
// memory column per dimension combined by an AND gate) can implement.
package automata

import (
	"fmt"
	"strings"

	"impala/internal/bitvec"
)

// Rect is a vector symbol: a cartesian product of per-dimension symbol sets.
// Dimension i holds the set of sub-symbols accepted at offset i within a
// stride chunk. Each dimension is stored as a ByteSet even for 4-bit
// automata (only the low 16 values are populated), so the same algebra works
// for both Impala (16-valued) and Cache-Automaton (256-valued) design points.
//
// A Rect is exactly what a single capsule implements: one memory column per
// dimension, AND-combined.
type Rect []bitvec.ByteSet

// NewRect returns a rect of the given stride with all dimensions empty.
func NewRect(stride int) Rect { return make(Rect, stride) }

// FullRect returns a rect whose every dimension is the full domain for the
// given symbol width ("don't care" / wildcard in every position).
func FullRect(stride, bits int) Rect {
	r := make(Rect, stride)
	for i := range r {
		r[i] = Domain(bits)
	}
	return r
}

// Domain returns the full symbol set for a dimension of the given width.
func Domain(bits int) bitvec.ByteSet {
	switch bits {
	case 2:
		return bitvec.ByteRange(0, 3)
	case 4:
		return bitvec.ByteRange(0, 15)
	case 8:
		return bitvec.ByteAll()
	default:
		panic(fmt.Sprintf("automata: unsupported symbol width %d", bits))
	}
}

// DomainSize returns the number of symbols in a dimension of the given width.
func DomainSize(bits int) int { return 1 << bits }

// Stride returns the number of dimensions.
func (r Rect) Stride() int { return len(r) }

// Empty reports whether the rect denotes the empty set (any dimension empty).
func (r Rect) Empty() bool {
	for _, d := range r {
		if d.Empty() {
			return true
		}
	}
	return len(r) == 0
}

// Has reports whether the tuple sym (len == stride) is in the rect.
func (r Rect) Has(sym []byte) bool {
	if len(sym) != len(r) {
		panic("automata: symbol/rect stride mismatch")
	}
	for i, d := range r {
		if !d.Has(sym[i]) {
			return false
		}
	}
	return true
}

// Contains reports whether o ⊆ r. Empty o is contained in everything.
func (r Rect) Contains(o Rect) bool {
	if o.Empty() {
		return true
	}
	if len(o) != len(r) {
		panic("automata: rect stride mismatch")
	}
	for i := range r {
		if !r[i].Contains(o[i]) {
			return false
		}
	}
	return true
}

// Intersect returns r ∩ o (a rect; products intersect dimension-wise).
func (r Rect) Intersect(o Rect) Rect {
	if len(o) != len(r) {
		panic("automata: rect stride mismatch")
	}
	out := make(Rect, len(r))
	for i := range r {
		out[i] = r[i].Intersect(o[i])
	}
	return out
}

// Intersects reports whether r ∩ o is non-empty.
func (r Rect) Intersects(o Rect) bool {
	if len(o) != len(r) {
		panic("automata: rect stride mismatch")
	}
	for i := range r {
		if r[i].Intersect(o[i]).Empty() {
			return false
		}
	}
	return len(r) > 0
}

// Equal reports dimension-wise equality.
func (r Rect) Equal(o Rect) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if r[i] != o[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy.
func (r Rect) Clone() Rect {
	out := make(Rect, len(r))
	copy(out, r)
	return out
}

// Concat returns the rect r ++ o (dimensions of o appended after r's).
func (r Rect) Concat(o Rect) Rect {
	out := make(Rect, 0, len(r)+len(o))
	out = append(out, r...)
	out = append(out, o...)
	return out
}

// Size returns the number of tuples denoted by the rect (product of
// dimension cardinalities).
func (r Rect) Size() int {
	n := 1
	for _, d := range r {
		n *= d.Count()
	}
	if len(r) == 0 {
		return 0
	}
	return n
}

// Key returns a canonical byte-string key for map indexing.
func (r Rect) Key() string {
	var b strings.Builder
	b.Grow(len(r) * 32)
	for _, d := range r {
		for _, w := range d {
			var buf [8]byte
			for k := 0; k < 8; k++ {
				buf[k] = byte(w >> (8 * k))
			}
			b.Write(buf[:])
		}
	}
	return b.String()
}

// String renders the rect as a vector of dimension sets, e.g. "(\xa,\xb,*,*)".
func (r Rect) String() string {
	parts := make([]string, len(r))
	for i, d := range r {
		if d.Full() || d == Domain(4) {
			parts[i] = "*"
		} else {
			parts[i] = d.String()
		}
	}
	return "(" + strings.Join(parts, ",") + ")"
}
