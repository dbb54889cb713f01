package espresso

import (
	"sync"
	"sync/atomic"

	"impala/internal/automata"
	"impala/internal/bitvec"
)

// CoverCache memoizes Espresso results across an entire compile run. The
// paper's Figure 2 observation — ~73% of states accept a single symbol, 86%
// within eight — means strided and refined match sets repeat massively: the
// same byte-set decompositions and the same multi-rect covers recur across
// thousands of states, so most Minimize calls on a real workload are
// repeats. The cache is keyed by the canonical cover identity
// (MatchSet.CanonicalKey, which is collision-free) plus the symbol width and
// iteration bound, making a hit exactly equivalent to recomputation:
// Minimize is a pure deterministic function, so cached compiles are
// byte-identical to uncached ones.
//
// The cache is safe for concurrent use by the compile pipeline's worker
// pools. Concurrent misses on the same key may both compute; both arrive at
// the same cover, so whichever stores first wins with no effect on results.
type CoverCache struct {
	mu     sync.RWMutex
	covers map[coverKey]automata.MatchSet
	decomp map[bitvec.ByteSet][]HiLo

	hits   atomic.Uint64
	misses atomic.Uint64
}

// coverKey identifies one minimization instance. Stride is encoded inside
// the canonical cover key; bits and the effective iteration bound complete
// the instance.
type coverKey struct {
	cover   string
	bits    int
	maxIter int
}

// NewCoverCache returns an empty cache.
func NewCoverCache() *CoverCache {
	return &CoverCache{
		covers: make(map[coverKey]automata.MatchSet),
		decomp: make(map[bitvec.ByteSet][]HiLo),
	}
}

// Stats returns the cumulative hit and miss counters (both cover and
// decomposition lookups).
func (c *CoverCache) Stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}

// Len returns the number of cached entries (covers plus decompositions).
func (c *CoverCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.covers) + len(c.decomp)
}

// minimize returns the memoized Minimize result for the instance, computing
// and storing it on a miss. Hits return a deep copy so callers can never
// alias cache-owned rects.
func (c *CoverCache) minimize(on automata.MatchSet, stride, bits int, opts Options) automata.MatchSet {
	key := coverKey{cover: on.CanonicalKey(), bits: bits, maxIter: effectiveIterations(opts)}
	c.mu.RLock()
	cached, ok := c.covers[key]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return cached.Clone()
	}
	c.misses.Add(1)
	opts.Cache = nil // compute uncached; the instance itself is the entry
	out := Minimize(on, stride, bits, opts)
	c.mu.Lock()
	c.covers[key] = out
	c.mu.Unlock()
	return out.Clone()
}

// DecomposeByteSet is the memoized form of the package-level
// DecomposeByteSet — the squash-stage primitive, called once per state of
// the input automaton and therefore the highest-repetition instance of all
// (a handful of distinct byte sets cover most real rule sets). A nil
// receiver falls through to direct computation.
func (c *CoverCache) DecomposeByteSet(set bitvec.ByteSet) []HiLo {
	if c == nil {
		return DecomposeByteSet(set)
	}
	c.mu.RLock()
	cached, ok := c.decomp[set]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return append([]HiLo(nil), cached...)
	}
	c.misses.Add(1)
	out := DecomposeByteSet(set)
	c.mu.Lock()
	c.decomp[set] = out
	c.mu.Unlock()
	return append([]HiLo(nil), out...)
}
