package espresso

import (
	"math/rand"
	"sync"
	"testing"

	"impala/internal/automata"
	"impala/internal/bitvec"
)

func randCover(r *rand.Rand, stride int, maxRects int) automata.MatchSet {
	n := 1 + r.Intn(maxRects)
	m := make(automata.MatchSet, 0, n)
	for i := 0; i < n; i++ {
		rect := make(automata.Rect, stride)
		for d := range rect {
			var s bitvec.ByteSet
			for k := 0; k < 1+r.Intn(4); k++ {
				s = s.Add(byte(r.Intn(16)))
			}
			rect[d] = s
		}
		m = m.Add(rect)
	}
	return m
}

// Property: a cached Minimize is byte-identical to the uncached one — the
// determinism invariant the compile pipeline relies on.
func TestCoverCacheTransparent(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	cache := NewCoverCache()
	for trial := 0; trial < 150; trial++ {
		on := randCover(r, 2, 5)
		plain := Minimize(on, 2, 4, Options{})
		cached := Minimize(on, 2, 4, Options{Cache: cache})
		again := Minimize(on, 2, 4, Options{Cache: cache}) // guaranteed hit path
		if plain.Key() != cached.Key() || plain.Key() != again.Key() {
			t.Fatalf("cache changed result for %v: %v vs %v vs %v", on, plain, cached, again)
		}
	}
	if hits, misses := cache.Stats(); hits == 0 || misses == 0 {
		t.Fatalf("expected both hits and misses, got %d/%d", hits, misses)
	}
}

func TestCoverCacheHitCounting(t *testing.T) {
	cache := NewCoverCache()
	on := automata.MatchSet{
		{bitvec.ByteOf(1), bitvec.ByteOf(2)},
		{bitvec.ByteOf(3), bitvec.ByteOf(4)},
	}
	Minimize(on, 2, 4, Options{Cache: cache})
	if hits, misses := cache.Stats(); hits != 0 || misses != 1 {
		t.Fatalf("after first call: %d hits %d misses", hits, misses)
	}
	Minimize(on, 2, 4, Options{Cache: cache})
	Minimize(on.Clone(), 2, 4, Options{Cache: cache}) // same canonical cover
	if hits, misses := cache.Stats(); hits != 2 || misses != 1 {
		t.Fatalf("after repeats: %d hits %d misses", hits, misses)
	}
	// A different iteration bound is a different instance.
	Minimize(on, 2, 4, Options{Cache: cache, MaxIterations: 2})
	if _, misses := cache.Stats(); misses != 2 {
		t.Fatalf("MaxIterations not part of the key: %d misses", misses)
	}
	// Explicit default iterations shares the default entry.
	Minimize(on, 2, 4, Options{Cache: cache, MaxIterations: 4})
	if hits, _ := cache.Stats(); hits != 3 {
		t.Fatalf("resolved default iterations should hit: %d hits", hits)
	}
	if cache.Len() != 2 {
		t.Fatalf("Len = %d, want 2", cache.Len())
	}
}

// Hits must return covers that do not alias cache-owned storage: mutating a
// returned cover cannot poison later lookups.
func TestCoverCacheHitsAreCopies(t *testing.T) {
	cache := NewCoverCache()
	on := automata.MatchSet{
		{bitvec.ByteOf(1), bitvec.ByteOf(2)},
		{bitvec.ByteOf(3), bitvec.ByteOf(4)},
	}
	first := Minimize(on, 2, 4, Options{Cache: cache})
	want := first.Key()
	for i := range first {
		for d := range first[i] {
			first[i][d] = bitvec.ByteOf(9) // clobber the returned cover
		}
	}
	second := Minimize(on, 2, 4, Options{Cache: cache})
	if second.Key() != want {
		t.Fatal("mutating a returned cover corrupted the cache")
	}
}

func TestCoverCacheDecompose(t *testing.T) {
	cache := NewCoverCache()
	set := bitvec.ByteRange(0x20, 0x3F)
	a := cache.DecomposeByteSet(set)
	b := cache.DecomposeByteSet(set)
	plain := DecomposeByteSet(set)
	if len(a) != len(plain) || len(b) != len(plain) {
		t.Fatalf("cached decomposition differs: %v vs %v", a, plain)
	}
	for i := range plain {
		if a[i] != plain[i] || b[i] != plain[i] {
			t.Fatalf("cached decomposition differs at %d", i)
		}
	}
	if hits, misses := cache.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("decompose stats: %d hits %d misses", hits, misses)
	}
	// Nil receiver computes directly.
	var nilCache *CoverCache
	if got := nilCache.DecomposeByteSet(set); len(got) != len(plain) {
		t.Fatal("nil cache DecomposeByteSet broken")
	}
	if h, m := nilCache.Stats(); h != 0 || m != 0 || nilCache.Len() != 0 {
		t.Fatal("nil cache stats should be zero")
	}
}

// The cache must tolerate concurrent mixed lookups (run under -race in CI).
func TestCoverCacheConcurrent(t *testing.T) {
	cache := NewCoverCache()
	r := rand.New(rand.NewSource(23))
	covers := make([]automata.MatchSet, 32)
	for i := range covers {
		covers[i] = randCover(r, 2, 4)
	}
	want := make([]string, len(covers))
	for i, on := range covers {
		want[i] = Minimize(on, 2, 4, Options{}).Key()
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(seed))
			for k := 0; k < 200; k++ {
				i := rr.Intn(len(covers))
				got := Minimize(covers[i], 2, 4, Options{Cache: cache})
				if got.Key() != want[i] {
					t.Errorf("concurrent cached result differs for cover %d", i)
					return
				}
				cache.DecomposeByteSet(bitvec.ByteOf(byte(rr.Intn(256))))
			}
		}(int64(w))
	}
	wg.Wait()
}
