package bitvec

import "math/bits"

// Matrix is a dense rows×cols bit matrix. It models the memory image of a
// crossbar switch subarray: cell (r, c) is 1 iff an edge from the state on
// word-line r to the state on bit-line c is configured. Rows are packed into
// 64-bit words so that a whole row can be wired-OR'd into an accumulator with
// a handful of word operations — mirroring how the hardware reads a row per
// active state and ORs match lines on the bit-lines.
type Matrix struct {
	rows, cols int
	wordsPerRw int // words per row
	data       []uint64
}

// NewMatrix returns an all-zero rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("bitvec: negative matrix dimension")
	}
	wpr := (cols + 63) / 64
	return &Matrix{rows: rows, cols: cols, wordsPerRw: wpr, data: make([]uint64, rows*wpr)}
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Set sets cell (r, c) to 1.
func (m *Matrix) Set(r, c int) {
	m.check(r, c)
	m.data[r*m.wordsPerRw+c/64] |= 1 << (uint(c) & 63)
}

// Clear sets cell (r, c) to 0.
func (m *Matrix) Clear(r, c int) {
	m.check(r, c)
	m.data[r*m.wordsPerRw+c/64] &^= 1 << (uint(c) & 63)
}

// Get reports whether cell (r, c) is 1.
func (m *Matrix) Get(r, c int) bool {
	m.check(r, c)
	return m.data[r*m.wordsPerRw+c/64]&(1<<(uint(c)&63)) != 0
}

func (m *Matrix) check(r, c int) {
	if r < 0 || r >= m.rows || c < 0 || c >= m.cols {
		panic("bitvec: matrix index out of range")
	}
}

// Row returns the packed words of row r. The returned slice aliases the
// matrix storage; callers must not modify it.
func (m *Matrix) Row(r int) []uint64 {
	if r < 0 || r >= m.rows {
		panic("bitvec: matrix row out of range")
	}
	return m.data[r*m.wordsPerRw : (r+1)*m.wordsPerRw]
}

// MutableRow returns the packed words of row r for in-place configuration
// loading. The slice aliases matrix storage.
func (m *Matrix) MutableRow(r int) []uint64 {
	if r < 0 || r >= m.rows {
		panic("bitvec: matrix row out of range")
	}
	return m.data[r*m.wordsPerRw : (r+1)*m.wordsPerRw]
}

// OrRowInto ORs row r into acc, which must have at least WordsPerRow words.
// This is the wired-OR bit-line operation of a memory-mapped switch.
func (m *Matrix) OrRowInto(r int, acc []uint64) {
	row := m.Row(r)
	for i, w := range row {
		acc[i] |= w
	}
}

// WordsPerRow returns the number of 64-bit words in each packed row.
func (m *Matrix) WordsPerRow() int { return m.wordsPerRw }

// PopCount returns the number of set cells (configured switch points).
func (m *Matrix) PopCount() int {
	n := 0
	for _, w := range m.data {
		n += bits.OnesCount64(w)
	}
	return n
}

// Utilization returns PopCount / (rows*cols), the fraction of switch points
// configured; 0 for an empty matrix.
func (m *Matrix) Utilization() float64 {
	if m.rows == 0 || m.cols == 0 {
		return 0
	}
	return float64(m.PopCount()) / float64(m.rows*m.cols)
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Words is a variable-length bit vector used for active-state frontiers.
type Words []uint64

// NewWords returns a zeroed bit vector able to hold n bits.
func NewWords(n int) Words { return make(Words, (n+63)/64) }

// Set sets bit i.
func (w Words) Set(i int) { w[i/64] |= 1 << (uint(i) & 63) }

// Get reports bit i.
func (w Words) Get(i int) bool { return w[i/64]&(1<<(uint(i)&63)) != 0 }

// ClearAll zeroes the vector.
func (w Words) ClearAll() {
	for i := range w {
		w[i] = 0
	}
}

// AndInto computes dst = w ∩ other in place into dst (all same length).
func (w Words) AndInto(other, dst Words) {
	for i := range w {
		dst[i] = w[i] & other[i]
	}
}

// OrInto ORs w into dst (dst |= w; same length). This is the wired-OR
// accumulate used by the enable-propagation phase of the simulator.
func (w Words) OrInto(dst Words) {
	for i := range w {
		dst[i] |= w[i]
	}
}

// AndNot computes dst = w \ other (dst = w &^ other; all same length).
func (w Words) AndNot(other, dst Words) {
	for i := range w {
		dst[i] = w[i] &^ other[i]
	}
}

// CopyFrom overwrites w with the contents of src (same length).
func (w Words) CopyFrom(src Words) {
	copy(w, src)
}

// Any reports whether any bit is set.
func (w Words) Any() bool {
	for _, x := range w {
		if x != 0 {
			return true
		}
	}
	return false
}

// Count returns the number of set bits.
func (w Words) Count() int {
	n := 0
	for _, x := range w {
		n += bits.OnesCount64(x)
	}
	return n
}

// ForEach calls fn for each set bit index in ascending order.
func (w Words) ForEach(fn func(i int)) {
	for wi, word := range w {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			fn(wi*64 + b)
			word &= word - 1
		}
	}
}
