package bitvec

import (
	"math/bits"
	"slices"
)

// Frontier is a bit vector with a word-level summary, for state sets of
// which only a few words are non-zero at a time. Bit w of Sum set means word
// w of Bits may be non-zero; every word Sum does not name is zero. Bits
// therefore stays a valid dense vector (readers that do not care about
// sparsity use it as plain Words) while writers and sweeps visit only the
// words Sum names — the software twin of a switch hierarchy in which only
// blocks holding an active state drive their rows.
type Frontier struct {
	Bits Words
	Sum  Words
}

// FrontierWords returns the number of 64-bit words an n-bit Frontier
// occupies (vector plus summary), for carving several from one allocation.
func FrontierWords(n int) int {
	nw := (n + 63) / 64
	return nw + (nw+63)/64
}

// CarveFrontier cuts an empty n-bit Frontier from the front of buf, which
// must be zeroed and hold at least FrontierWords(n) words, and returns it
// with the rest of buf.
func CarveFrontier(buf []uint64, n int) (Frontier, []uint64) {
	nw, total := (n+63)/64, FrontierWords(n)
	return Frontier{Bits: buf[:nw:nw], Sum: buf[nw:total:total]}, buf[total:]
}

// NewFrontier returns an empty Frontier able to hold n bits.
func NewFrontier(n int) Frontier {
	f, _ := CarveFrontier(make([]uint64, FrontierWords(n)), n)
	return f
}

// Set sets bit i and names its word in the summary.
func (f Frontier) Set(i int) {
	w := i >> 6
	f.Bits[w] |= 1 << (uint(i) & 63)
	f.Sum[w>>6] |= 1 << (uint(w) & 63)
}

// Clear zeroes the vector by visiting only the words the summary names,
// then empties the summary.
func (f Frontier) Clear() {
	for sw, s := range f.Sum {
		for ; s != 0; s &= s - 1 {
			f.Bits[sw<<6|bits.TrailingZeros64(s)] = 0
		}
		f.Sum[sw] = 0
	}
}

// CSR is a read-only rows×cols bit matrix in compressed-sparse-row form at
// word granularity: per row, only its non-zero 64-bit words. It models the
// same crossbar image as Matrix — cell (r, c) is an edge from the state on
// word-line r to the state on bit-line c — at a cost proportional to the
// configured switch points instead of rows×cols, which is what lets a
// successor relation of 10⁵ states fit in a few MB.
type CSR struct {
	// words[r] is the first word of row r, so the common one-word row costs
	// one load and no extent lookup (an empty row holds the zero rowWord,
	// which ORs nothing into word 0); a row's further words follow the rows,
	// chained through next.
	words []rowWord
}

// rowWord is one non-zero word of a CSR row: the bits mask at word index
// word of the row.
type rowWord struct {
	mask uint64
	word int32
	next int32 // index in CSR.words of the row's next word, 0 after its last
}

// CSRBuilder accumulates a CSR row by row: Set the columns of the current
// row in any order (duplicates are fine), then EndRow.
type CSRBuilder struct {
	words   []rowWord
	rows, r int     // rows of the matrix, rows ended so far
	acc     Words   // the current row, dense
	touched []int32 // word indices of acc that are non-zero
}

// NewCSRBuilder starts a matrix of the given shape; the caller must EndRow
// exactly rows times before Build.
func NewCSRBuilder(rows, cols int) *CSRBuilder {
	if rows < 0 || cols < 0 {
		panic("bitvec: negative matrix dimension")
	}
	return &CSRBuilder{words: make([]rowWord, rows), rows: rows, acc: NewWords(cols)}
}

// Set sets cell (current row, c).
func (b *CSRBuilder) Set(c int) {
	w := c >> 6
	if b.acc[w] == 0 {
		b.touched = append(b.touched, int32(w))
	}
	b.acc[w] |= 1 << (uint(c) & 63)
}

// EndRow closes the current row and starts the next.
func (b *CSRBuilder) EndRow() {
	if b.r == b.rows {
		panic("bitvec: more CSR rows ended than the matrix has")
	}
	slices.Sort(b.touched)
	at := b.r
	for k, w := range b.touched {
		if k > 0 {
			b.words[at].next = int32(len(b.words))
			at = len(b.words)
			b.words = append(b.words, rowWord{})
		}
		b.words[at] = rowWord{mask: b.acc[w], word: w}
		b.acc[w] = 0
	}
	b.touched = b.touched[:0]
	b.r++
}

// Build returns the finished matrix, trimmed to its contents. The builder
// must not be used afterwards.
func (b *CSRBuilder) Build() *CSR {
	if b.r != b.rows {
		panic("bitvec: CSR built before every row was ended")
	}
	return &CSR{words: append(make([]rowWord, 0, len(b.words)), b.words...)}
}

// OrRowsInto ORs the row of every set bit of rows into acc and names in
// acc's summary each word it writes: the wired-OR of one transition cycle,
// visiting only the words of rows its summary names and only the non-zero
// words of each row. Consecutive row words that land on the same word of acc
// — the rule when many neighbouring states are active — are combined in a
// register and written once, so a dense frontier pays neither a
// read-modify-write nor a summary mark per edge.
func (m *CSR) OrRowsInto(rows, acc *Frontier) {
	words := m.words
	dst, sum := acc.Bits, acc.Sum
	at, run := int32(0), uint64(0) // run is still to be ORed into dst[at]
	for sw, s := range rows.Sum {
		for ; s != 0; s &= s - 1 {
			w := sw<<6 | bits.TrailingZeros64(s)
			for word := rows.Bits[w]; word != 0; word &= word - 1 {
				r := w<<6 | bits.TrailingZeros64(word)
				for {
					e := &words[r]
					if e.word != at {
						if run != 0 {
							dst[at] |= run
							sum[at>>6] |= 1 << (uint(at) & 63)
						}
						at, run = e.word, 0
					}
					run |= e.mask
					if r = int(e.next); r == 0 {
						break
					}
				}
			}
		}
	}
	if run != 0 {
		dst[at] |= run
		sum[at>>6] |= 1 << (uint(at) & 63)
	}
}
