package automata

import (
	"math/rand"
	"testing"

	"impala/internal/bitvec"
)

func nib(vals ...byte) bitvec.ByteSet {
	var s bitvec.ByteSet
	for _, v := range vals {
		if v > 15 {
			panic("nib: value out of nibble range")
		}
		s = s.Add(v)
	}
	return s
}

func nibRange(lo, hi byte) bitvec.ByteSet { return bitvec.ByteRange(lo, hi) }

func randRect(r *rand.Rand, stride, bits int) Rect {
	out := make(Rect, stride)
	dom := DomainSize(bits)
	for i := range out {
		var s bitvec.ByteSet
		// Bias towards small sets like real automata.
		n := 1 + r.Intn(4)
		if r.Intn(8) == 0 {
			n = 1 + r.Intn(dom)
		}
		for j := 0; j < n; j++ {
			s = s.Add(byte(r.Intn(dom)))
		}
		out[i] = s
	}
	return out
}

func randTuple(r *rand.Rand, stride, bits int) []byte {
	t := make([]byte, stride)
	for i := range t {
		t[i] = byte(r.Intn(DomainSize(bits)))
	}
	return t
}

func TestRectBasics(t *testing.T) {
	r := Rect{nib(0xA), nib(0xB), Domain(4), Domain(4)}
	if r.Stride() != 4 || r.Empty() {
		t.Fatal("bad stride/empty")
	}
	if !r.Has([]byte{0xA, 0xB, 0x0, 0xF}) {
		t.Fatal("Has should match wildcard dims")
	}
	if r.Has([]byte{0xB, 0xB, 0x0, 0x0}) {
		t.Fatal("Has matched wrong first dim")
	}
	if r.Size() != 16*16 {
		t.Fatalf("Size = %d", r.Size())
	}
	if got := r.String(); got != "(["+"a],[b],*,*)" {
		t.Logf("String = %s", got) // representation smoke only
	}
}

func TestRectEmpty(t *testing.T) {
	r := Rect{nib(1), bitvec.ByteSet{}, nib(2)}
	if !r.Empty() {
		t.Fatal("rect with empty dim should be empty")
	}
	if NewRect(3).Stride() != 3 || !NewRect(3).Empty() {
		t.Fatal("NewRect wrong")
	}
	var zero Rect
	if !zero.Empty() {
		t.Fatal("zero-stride rect should be empty")
	}
}

func TestRectContainsIntersect(t *testing.T) {
	a := Rect{nibRange(2, 5), nibRange(1, 3)}
	b := Rect{nibRange(3, 4), nib(2)}
	if !a.Contains(b) || b.Contains(a) {
		t.Fatal("Contains wrong")
	}
	c := Rect{nibRange(9, 12), nibRange(1, 3)}
	if a.Intersects(c) {
		t.Fatal("disjoint rects intersect")
	}
	d := Rect{nibRange(4, 9), nib(3)}
	x := a.Intersect(d)
	if !x.Equal(Rect{nibRange(4, 5), nib(3)}) {
		t.Fatalf("Intersect = %v", x)
	}
}

func TestRectConcatSample(t *testing.T) {
	a := Rect{nib(1)}
	b := Rect{nib(2), nib(3)}
	c := a.Concat(b)
	if c.Stride() != 3 || !c.Has([]byte{1, 2, 3}) {
		t.Fatal("Concat wrong")
	}
}

func TestRectKeyDistinguishes(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		a := randRect(r, 2, 4)
		b := randRect(r, 2, 4)
		if (a.Key() == b.Key()) != a.Equal(b) {
			t.Fatalf("Key/Equal disagree for %v vs %v", a, b)
		}
	}
}

// Property: SharpRect(r, c) produces pairwise-disjoint rects whose union is
// exactly r minus c (checked by tuple membership sampling and exhaustive
// small-domain enumeration).
func TestSharpRectExact(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		stride := 1 + r.Intn(3)
		a := randRect(r, stride, 4)
		c := randRect(r, stride, 4)
		pieces := SharpRect(a, c)
		// Exhaustive over 16^stride tuples (max 4096).
		n := DomainSize(4)
		total := 1
		for i := 0; i < stride; i++ {
			total *= n
		}
		tuple := make([]byte, stride)
		for x := 0; x < total; x++ {
			v := x
			for i := 0; i < stride; i++ {
				tuple[i] = byte(v % n)
				v /= n
			}
			want := a.Has(tuple) && !c.Has(tuple)
			got := 0
			for _, p := range pieces {
				if p.Has(tuple) {
					got++
				}
			}
			if want && got != 1 {
				t.Fatalf("tuple %v: want in exactly 1 piece, in %d (a=%v c=%v)", tuple, got, a, c)
			}
			if !want && got != 0 {
				t.Fatalf("tuple %v: want in 0 pieces, in %d (a=%v c=%v)", tuple, got, a, c)
			}
		}
	}
}

func TestDomain(t *testing.T) {
	if Domain(4).Count() != 16 || Domain(8).Count() != 256 {
		t.Fatal("Domain sizes wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Domain(5) did not panic")
		}
	}()
	Domain(5)
}

func TestFullRect(t *testing.T) {
	r := FullRect(3, 4)
	if r.Size() != 16*16*16 {
		t.Fatalf("FullRect size = %d", r.Size())
	}
	if !r.Has([]byte{0, 15, 7}) {
		t.Fatal("FullRect should match everything")
	}
}
