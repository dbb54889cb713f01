// Rescan-free data-parallel scanning. The overlap-rescan scheme in
// sim.RunParallel re-consumes overlapBytes per worker and refuses automata
// with unbounded match spans outright; a DFA needs neither. Because the
// simultaneous transition function is total — from any state, one table
// walk per sub-symbol — each worker can scan its exact segment from an
// unknown entry state by tracking every cycle-boundary state hypothesis at
// once, and segments compose by function application: worker k+1's true
// entry is worker k's exit. Hypotheses that land on the same state merge
// (the transition function is many-to-one), so the per-worker class count
// collapses toward one within a few cycles on practical automata; the
// resolution pass then selects each worker's report stream by walking its
// entry hypothesis' merge chain. Components that never converge (counters,
// rings — the states stay rotationally distinct) are detected by a bail
// heuristic and rescanned serially from the true entry state, which is the
// overlap-free worst case, not a correctness loss.
package dfa

import (
	"sync"

	"impala/internal/sim"
)

// Speculative-scan tuning: at bailCheckCycle, a worker still tracking more
// than bailMaxLive hypothesis classes gives up (non-converging automata)
// and defers to a serial rescan during resolution.
const (
	bailCheckCycle = 64
	bailMaxLive    = 8
)

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// alignBytes returns the segment-boundary alignment in bytes: the smallest
// byte count holding a whole number of cycles (of even cycle pairs for
// StartEven automata, so every segment starts on an even cycle).
func (d *DFA) alignBytes() int {
	cb := d.bits * d.stride
	if d.anyEven {
		cb *= 2
	}
	return cb / gcd(cb, 8)
}

// scanSegment walks subs (sub-symbols, beginning at a cycle boundary) from
// the entry state, emitting reports at absolute positions (the segment
// starts at global cycle startCycle; totalBits filters the zero-padded
// final partial cycle). It returns the exit state at the last complete
// cycle boundary — the entry of the next segment.
func (d *DFA) scanSegment(entry uint16, subs []byte, startCycle, totalBits int, emit sim.ReportSink) uint16 {
	s := entry
	S := d.stride
	cycles := len(subs) / S
	for cyc := 0; cyc < cycles; cyc++ {
		s = d.step(s, subs[cyc*S:][:S])
		if r := &d.cyc[s]; r.NRep != 0 {
			d.emit(r, startCycle+cyc, 0, totalBits, emit)
		}
	}
	if tail := subs[cycles*S:]; len(tail) != 0 {
		if r := &d.cyc[d.pad(d.step(s, tail), len(tail))]; r.NRep != 0 {
			d.emit(r, startCycle+cycles, 0, totalBits, emit)
		}
	}
	return s
}

// specPoint is one cycle at which a hypothesis class sat on a reporting
// cycle-boundary state; the state's report entries are expanded during
// resolution.
type specPoint struct {
	cyc   int32
	state uint16
}

// specClass is one hypothesis class of a speculative segment scan: the
// cycle-boundary states it has visited (cur is the latest), the class it
// merged into (parent, at joinCyc) and the reporting cycles recorded while
// it was live. Points all predate joinCyc; cycles at or after it are owned
// by the merge-chain ancestors.
type specClass struct {
	cur     uint16
	parent  int32
	joinCyc int32
	points  []specPoint
}

// specResult is one worker's speculative scan outcome.
type specResult struct {
	resolved bool
	classOf  []int32 // entry hypothesis (cycle-boundary state) -> class index
	classes  []specClass
}

// speculate scans subs from every possible entry state at once — the
// simultaneous-DFA run. Hypotheses start at every cycle-boundary state of
// the right parity (all are reachable candidates mid-stream; the start
// state is excluded because no transition re-enters it) and merge as the
// transition function collapses them.
func (d *DFA) speculate(subs []byte, startCycle int) specResult {
	ns := len(d.cyc)
	res := specResult{classOf: make([]int32, ns)}
	for i := range res.classOf {
		res.classOf[i] = -1
	}
	par := uint8(startCycle & 1)
	for sid := range d.cyc {
		if uint16(sid) == d.start {
			continue
		}
		if d.anyEven && d.cyc[sid].Parity != par {
			continue
		}
		res.classOf[sid] = int32(len(res.classes))
		res.classes = append(res.classes, specClass{cur: uint16(sid), parent: -1, joinCyc: -1})
	}
	live := make([]int32, len(res.classes))
	for i := range live {
		live[i] = int32(i)
	}
	landed := make([]int32, ns)
	stamp := make([]int32, ns)
	for i := range stamp {
		stamp[i] = -1
	}

	S := d.stride
	cycles := len(subs) / S
	for cyc := 0; cyc < cycles; cyc++ {
		chunk := subs[cyc*S:][:S]
		keep := live[:0]
		for _, li := range live {
			c := &res.classes[li]
			s := d.step(c.cur, chunk)
			if stamp[s] == int32(cyc) {
				// Another class reached the same state this cycle: from here
				// on their futures are identical — merge into the winner.
				c.parent = landed[s]
				c.joinCyc = int32(cyc)
				continue
			}
			stamp[s] = int32(cyc)
			landed[s] = li
			c.cur = s
			if d.cyc[s].NRep != 0 {
				c.points = append(c.points, specPoint{cyc: int32(cyc), state: s})
			}
			keep = append(keep, li)
		}
		live = keep
		if cyc == bailCheckCycle && len(live) > bailMaxLive {
			return specResult{resolved: false}
		}
	}
	// Zero-padded final partial cycle (stream tail): record reporting
	// points without advancing the exit states.
	if tail := subs[cycles*S:]; len(tail) != 0 {
		for _, li := range live {
			c := &res.classes[li]
			if s := d.pad(d.step(c.cur, tail), len(tail)); d.cyc[s].NRep != 0 {
				c.points = append(c.points, specPoint{cyc: int32(cycles), state: s})
			}
		}
	}
	res.resolved = true
	return res
}

// collect resolves a speculative scan against the now-known entry state:
// it walks the entry hypothesis' merge chain, emitting each node's points
// from the cycle the previous node joined it, and returns the exit state
// (the chain root's final state).
func (r *specResult) collect(entry uint16, emit func(cyc int32, state uint16)) (uint16, bool) {
	ci := r.classOf[entry]
	if ci < 0 {
		return 0, false
	}
	lo := int32(0)
	for {
		c := &r.classes[ci]
		for _, p := range c.points {
			if p.cyc >= lo {
				emit(p.cyc, p.state)
			}
		}
		if c.parent < 0 {
			return c.cur, true
		}
		lo = c.joinCyc
		ci = c.parent
	}
}

// RunParallel scans input across workers concurrent segments without
// overlap re-scanning: worker 0 scans from the start state; every other
// worker scans its exact segment speculatively from all entry hypotheses,
// and a serial resolution pass stitches segments by function composition
// (each worker's entry is its predecessor's exit). Reports are identical
// to Run's. Segments that failed to converge are rescanned serially during
// resolution (counted as tier fallbacks when metrics are enabled).
func (d *DFA) RunParallel(input []byte, workers int) []sim.Report {
	if workers < 1 {
		workers = 1
	}
	align := d.alignBytes()
	segBytes := (len(input) + workers - 1) / workers
	segBytes = (segBytes + align - 1) / align * align
	if workers == 1 || segBytes <= 0 || segBytes >= len(input) {
		return d.Run(input)
	}

	subsPerByte := 8 / d.bits
	totalBits := len(input) * 8
	type segOut struct {
		subs       []byte
		startCycle int
		reports    []sim.Report // worker 0 only
		exit       uint16       // worker 0 only
		spec       specResult
	}
	var jobs []int
	for s := 0; s < len(input); s += segBytes {
		jobs = append(jobs, s)
	}
	outs := make([]segOut, len(jobs))
	var wg sync.WaitGroup
	for i, start := range jobs {
		end := start + segBytes
		if end > len(input) {
			end = len(input)
		}
		wg.Add(1)
		go func(i, start, end int) {
			defer wg.Done()
			o := &outs[i]
			o.subs = sim.AppendSubSymbols(nil, d.bits, input[start:end])
			o.startCycle = start * subsPerByte / d.stride
			if i == 0 {
				o.exit = d.scanSegment(d.start, o.subs, 0, totalBits, func(r sim.Report) {
					o.reports = append(o.reports, r)
				})
			} else {
				o.spec = d.speculate(o.subs, o.startCycle)
			}
		}(i, start, end)
	}
	wg.Wait()

	out := outs[0].reports
	entry := outs[0].exit
	fallbacks := 0
	emit := func(r sim.Report) { out = append(out, r) }
	for i := 1; i < len(outs); i++ {
		o := &outs[i]
		if o.spec.resolved {
			exit, ok := o.spec.collect(entry, func(cyc int32, state uint16) {
				d.emit(&d.cyc[state], o.startCycle+int(cyc), 0, totalBits, emit)
			})
			if ok {
				entry = exit
				continue
			}
		}
		fallbacks++
		entry = d.scanSegment(entry, o.subs, o.startCycle, totalBits, emit)
	}
	sim.SortReports(out)
	if fallbacks > 0 {
		if m := tierMetricsPtr.Load(); m != nil {
			m.fallbacks.Add(int64(fallbacks))
		}
	}
	return out
}

// RunParallel scans input across workers concurrent segments: the DFA tier
// rescan-free (see DFA.RunParallel), the NFA tier via the compiled
// overlap-rescan path — and, where the NFA tier's match spans are
// unbounded (the case sim.RunParallel refuses outright), serially as a
// per-tier fallback, so a tiered automaton as a whole never refuses
// parallel execution. Reports are byte-identical to Run's.
func (t *Tiered) RunParallel(input []byte, workers int) ([]sim.Report, error) {
	var out []sim.Report
	if t.dfa != nil {
		reps := t.dfa.RunParallel(input, workers)
		for i := range reps {
			reps[i].State = t.dfaIDs[reps[i].State]
		}
		out = append(out, reps...)
	}
	serialNFA := false
	if t.nfac != nil {
		reps, err := t.nfac.RunParallel(input, workers, -1)
		if err != nil {
			reps, _ = t.nfac.Run(input)
			serialNFA = true
		}
		for i := range reps {
			reps[i].State = t.nfaIDs[reps[i].State]
		}
		out = append(out, reps...)
	}
	sim.SortReports(out)
	t.countRun(len(input), len(out))
	if m := tierMetricsPtr.Load(); m != nil && serialNFA {
		m.fallbacks.Inc()
	}
	return out, nil
}
