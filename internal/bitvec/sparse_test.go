package bitvec

import (
	"math/rand"
	"testing"
)

// consistent reports whether every non-zero word of f is named by its
// summary.
func consistent(f Frontier) bool {
	for w, x := range f.Bits {
		if x != 0 && f.Sum[w>>6]>>(uint(w)&63)&1 == 0 {
			return false
		}
	}
	return true
}

func TestFrontierSetClearCarve(t *testing.T) {
	for _, n := range []int{0, 1, 64, 65, 4096, 4097, 9000} {
		buf := make([]uint64, 2*FrontierWords(n)+3)
		a, rest := CarveFrontier(buf, n)
		b, rest := CarveFrontier(rest, n)
		if len(rest) != 3 {
			t.Fatalf("n=%d: %d words left of 3 spare", n, len(rest))
		}
		nw := (n + 63) / 64
		if len(a.Bits) != nw || len(a.Sum) != (nw+63)/64 {
			t.Fatalf("n=%d: carved %d+%d words", n, len(a.Bits), len(a.Sum))
		}
		r := rand.New(rand.NewSource(int64(n)))
		for k := 0; k < 40 && n > 0; k++ {
			i := r.Intn(n)
			a.Set(i)
			if !a.Bits.Get(i) || !consistent(a) {
				t.Fatalf("n=%d: Set(%d) left bit %t, consistent %t", n, i, a.Bits.Get(i), consistent(a))
			}
		}
		// A full-capacity carve must keep a's writes out of b.
		if b.Bits.Any() || b.Sum.Any() {
			t.Fatalf("n=%d: writes to one carved frontier reached the next", n)
		}
		a.Clear()
		if a.Bits.Any() || a.Sum.Any() {
			t.Fatalf("n=%d: Clear left bits or summary behind", n)
		}
	}
	if f := NewFrontier(130); len(f.Bits) != 3 || len(f.Sum) != 1 {
		t.Fatalf("NewFrontier(130): %d+%d words", len(f.Bits), len(f.Sum))
	}
}

// CSR.OrRowsInto must equal ORing the same rows of the dense Matrix, and
// name every word it wrote — across single-word matrices, ones whose
// summaries span several words, empty rows, and frontiers from one row to
// nearly all of them (the register-combining path).
func TestCSRMatchesMatrix(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, tc := range []struct{ rows, cols, perRow int }{
		{1, 1, 1}, {40, 40, 2}, {200, 64, 3}, {300, 700, 5}, {150, 9000, 40}, {5000, 5000, 2},
	} {
		m := NewMatrix(tc.rows, tc.cols)
		b := NewCSRBuilder(tc.rows, tc.cols)
		for i := 0; i < tc.rows; i++ {
			if i%7 != 3 { // every seventh row stays empty
				for k := 0; k < tc.perRow; k++ {
					c := r.Intn(tc.cols)
					if k > 0 && r.Intn(2) == 0 { // a neighbour, as chains have
						c = (i + k) % tc.cols
					}
					m.Set(i, c)
					b.Set(c)
					b.Set(c) // duplicates are fine
				}
			}
			b.EndRow()
		}
		csr := b.Build()
		for _, active := range []int{0, 1, 3, tc.rows / 2, tc.rows} {
			from := NewFrontier(tc.rows)
			want := NewWords(tc.cols)
			for k := 0; k < active; k++ {
				i := r.Intn(tc.rows)
				if active == tc.rows {
					i = k
				}
				if !from.Bits.Get(i) {
					from.Set(i)
					m.OrRowInto(i, want)
				}
			}
			// acc starts with a bit of its own: OrRowsInto only adds.
			acc := NewFrontier(tc.cols)
			acc.Set(tc.cols - 1)
			want.Set(tc.cols - 1)
			csr.OrRowsInto(&from, &acc)
			for w := range want {
				if acc.Bits[w] != want[w] {
					t.Fatalf("%dx%d, %d active: word %d = %#x, dense %#x", tc.rows, tc.cols, active, w, acc.Bits[w], want[w])
				}
			}
			if !consistent(acc) {
				t.Fatalf("%dx%d, %d active: a written word is missing from the summary", tc.rows, tc.cols, active)
			}
		}
	}
}

func TestCSRBuilderMisuse(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("negative shape", func() { NewCSRBuilder(-1, 4) })
	mustPanic("early Build", func() { NewCSRBuilder(2, 4).Build() })
	mustPanic("extra EndRow", func() {
		b := NewCSRBuilder(1, 4)
		b.EndRow()
		b.EndRow()
	})
}

// BenchmarkCSROrRowsInto times the transition primitive at the two ends the
// kernel is tuned between: a couple of active rows in a Snort-sized matrix,
// and a few hundred neighbouring rows of a small mesh.
func BenchmarkCSROrRowsInto(b *testing.B) {
	for _, tc := range []struct {
		name         string
		rows, active int
	}{{"sparse", 2400, 2}, {"dense", 512, 150}} {
		b.Run(tc.name, func(b *testing.B) {
			r := rand.New(rand.NewSource(11))
			build := NewCSRBuilder(tc.rows, tc.rows)
			for i := 0; i < tc.rows; i++ {
				build.Set((i + 1) % tc.rows)
				build.Set((i + 8) % tc.rows)
				build.EndRow()
			}
			m := build.Build()
			from, acc := NewFrontier(tc.rows), NewFrontier(tc.rows)
			for k := 0; k < tc.active; k++ {
				from.Set(r.Intn(tc.rows))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.OrRowsInto(&from, &acc)
				acc.Clear()
			}
		})
	}
}
