package sim

import (
	"fmt"
	"sync"

	"impala/internal/automata"
)

// RunParallel splits the input stream across `workers` replicas of the
// automaton and runs them concurrently — the parallel-automata-processor
// technique the paper cites as complementary (replicating an automaton and
// splitting the input raises throughput when spare capacity exists).
//
// The automaton is validated and compiled to its bit-parallel form exactly
// once, then delegated to Compiled.RunParallel. Callers that execute many
// inputs should Compile once themselves and call the method directly, which
// additionally reuses pooled per-worker sessions across calls.
func RunParallel(n *automata.NFA, input []byte, workers, overlapBytes int) ([]Report, error) {
	c, err := Compile(n)
	if err != nil {
		return nil, err
	}
	return c.RunParallel(input, workers, overlapBytes)
}

// RunParallel splits the input across `workers` concurrent segments of this
// compiled form. Worker engines are drawn from (and returned to) the
// compiled form's session pool, so repeated calls on one Compiled rebuild
// nothing.
//
// Each worker's segment is extended backwards by overlapBytes so matches
// straddling a split point are still observed; reports that end inside the
// overlap are attributed to (and deduplicated against) the previous
// segment. overlapBytes must be at least the automaton's maximum match
// span minus one; pass overlapBytes < 0 to derive it via MaxMatchSpan
// (an error is returned if spans are unbounded, i.e. the automaton has
// loops on reporting paths).
//
// Automata with anchored (start-of-data) states are supported: anchored
// states are only enabled on the first segment. Segment boundaries are
// rounded up to whole cycles — a worker whose extended segment began
// mid-cycle would chunk the stream on a shifted grid and simulate a
// different automaton — and, for StartEven automata at >= 8 bits/cycle, to
// whole cycle *pairs*, so every worker's local cycle counter agrees with
// the global one's parity. (Below 8 bits/cycle a byte holds an even number
// of cycles, so byte alignment preserves parity for free.)
func (c *Compiled) RunParallel(input []byte, workers, overlapBytes int) ([]Report, error) {
	n := c.nfa
	if workers < 1 {
		return nil, fmt.Errorf("sim: workers must be >= 1")
	}
	chunkBytes := n.BitsPerCycle() / 8
	if chunkBytes == 0 {
		chunkBytes = 1
	}
	alignBytes := chunkBytes
	if c.startEven != c.startOdd && n.BitsPerCycle() >= 8 {
		alignBytes *= 2
	}
	if overlapBytes < 0 {
		span, ok := n.MaxMatchSpan()
		if !ok {
			return nil, fmt.Errorf("sim: match span unbounded (loops on reporting paths); pass an explicit overlap")
		}
		// span is in chunks; convert to bytes (ceil) and subtract the one
		// chunk that ends inside the segment proper.
		overlapBytes = span * chunkBytes
	}
	if workers == 1 || len(input) == 0 {
		e := c.acquireEngine()
		r, _ := e.Run(input, nil)
		c.releaseEngine(e)
		return r, nil
	}

	segBytes := (len(input) + workers - 1) / workers
	segBytes = (segBytes + alignBytes - 1) / alignBytes * alignBytes
	overlapBytes = (overlapBytes + alignBytes - 1) / alignBytes * alignBytes
	reportsPerWorker := make([][]Report, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		segStart := w * segBytes
		if segStart >= len(input) {
			break
		}
		segEnd := segStart + segBytes
		if segEnd > len(input) {
			segEnd = len(input)
		}
		extStart := segStart - overlapBytes
		if extStart < 0 {
			extStart = 0
		}
		wg.Add(1)
		go func(w, extStart, segStart, segEnd int) {
			defer wg.Done()
			// Anchored states must not fire at an artificial segment
			// boundary: only the first worker (whose segment begins at the
			// true start of data) runs with anchors enabled.
			e := c.acquireEngine()
			reports, _ := e.runSegment(input[extStart:segEnd], w == 0)
			c.releaseEngine(e)
			baseBits := extStart * 8
			keepAfter := segStart * 8
			var kept []Report
			for _, r := range reports {
				abs := baseBits + r.BitPos
				if abs > keepAfter || (w == 0 && segStart == 0) {
					r.BitPos = abs
					kept = append(kept, r)
				}
			}
			reportsPerWorker[w] = kept
		}(w, extStart, segStart, segEnd)
	}
	wg.Wait()

	var all []Report
	for _, rs := range reportsPerWorker {
		all = append(all, rs...)
	}
	SortReports(all)
	// Deduplicate identical reports observed by adjacent workers.
	dedup := all[:0]
	for i, r := range all {
		if i > 0 && r == all[i-1] {
			continue
		}
		dedup = append(dedup, r)
	}
	return dedup, nil
}
