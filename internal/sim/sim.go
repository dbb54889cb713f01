// Package sim is the functional, cycle-accurate automata simulator of the
// toolchain (the APSim equivalent). It executes a homogeneous NFA of any
// (Bits, Stride) geometry over an input stream, produces offset-exact
// reports, and collects the per-cycle activity statistics that drive the
// architectural energy model.
//
// Execution follows the two-phase in-memory model of the paper: each cycle
// the input chunk is matched against every state's rule (state match), the
// match vector is ANDed with the enable vector derived from the previous
// cycle's active states propagated through the interconnect (state
// transition), and reporting states that remain active emit reports.
package sim

import (
	"cmp"
	"slices"
	"sort"

	"impala/internal/automata"
	"impala/internal/bitvec"
)

// Report records one pattern match.
type Report struct {
	// BitPos is the number of input bits consumed up to and including the
	// final sub-symbol of the match. It is geometry-independent: an 8-bit
	// automaton reporting after byte i and its squashed 4-bit twin reporting
	// after nibble 2i both record BitPos = 8*(i+1).
	BitPos int
	// Code is the ReportCode of the reporting state.
	Code int
	// State is the reporting state's ID (geometry-specific).
	State automata.StateID
}

// Key returns the geometry-independent identity of the report.
func (r Report) Key() [2]int { return [2]int{r.BitPos, r.Code} }

// Stats aggregates per-run activity used by the energy model.
type Stats struct {
	Cycles            int
	TotalActive       int64 // sum over cycles of |active states|
	TotalEnabled      int64 // sum over cycles of |enabled states|
	PeakActive        int
	Reports           int
	ActivePerCycleAvg float64
}

// finalize recomputes the derived aggregates from the raw sums, guarding
// against zero-cycle inputs (empty streams) so averages are 0, not NaN.
func (s *Stats) finalize() {
	if s.Cycles > 0 {
		s.ActivePerCycleAvg = float64(s.TotalActive) / float64(s.Cycles)
	} else {
		s.ActivePerCycleAvg = 0
	}
}

// Add merges another stats aggregate into s (e.g. per-Feed or per-segment
// stats of one logical stream) and recomputes the derived averages.
// PeakActive merges as a maximum.
func (s *Stats) Add(o Stats) {
	s.Cycles += o.Cycles
	s.TotalActive += o.TotalActive
	s.TotalEnabled += o.TotalEnabled
	if o.PeakActive > s.PeakActive {
		s.PeakActive = o.PeakActive
	}
	s.Reports += o.Reports
	s.finalize()
}

// Tracer observes per-cycle activity. OnCycle is called after each cycle
// with the sets of enabled and active states; the bitsets are reused across
// cycles and must not be retained.
type Tracer interface {
	OnCycle(cycle int, enabled, active bitvec.Words)
}

// Engine executes one automaton over input streams, dispatching scalar
// state-by-state. It is the straightforward rendering of the execution
// semantics and serves as the reference oracle for the bit-parallel
// CompiledEngine (the default behind Run). It implements the
// Core step interface, so it can be driven incrementally by a Session. It
// is reusable across runs but not safe for concurrent use.
type Engine struct {
	nfa *automata.NFA
	// enable working sets
	enabled, active, prevActive bitvec.Words
	always, startOfData, even   bitvec.Words
	reporting                   []automata.StateID
}

// NewEngine prepares an execution engine for the automaton. The automaton
// must validate.
func NewEngine(n *automata.NFA) (*Engine, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		nfa:         n,
		enabled:     bitvec.NewWords(n.NumStates()),
		active:      bitvec.NewWords(n.NumStates()),
		prevActive:  bitvec.NewWords(n.NumStates()),
		always:      bitvec.NewWords(n.NumStates()),
		startOfData: bitvec.NewWords(n.NumStates()),
		even:        bitvec.NewWords(n.NumStates()),
	}
	for i := range n.States {
		switch n.States[i].Start {
		case automata.StartAllInput:
			e.always.Set(i)
		case automata.StartOfData:
			e.startOfData.Set(i)
		case automata.StartEven:
			e.even.Set(i)
		}
		if n.States[i].Report {
			e.reporting = append(e.reporting, automata.StateID(i))
		}
	}
	return e, nil
}

// SubSymbols converts a byte input stream into the automaton's sub-symbol
// alphabet: identity for 8-bit automata; for 4-bit automata each byte b
// becomes (b>>4, b&0xF) — high nibble first, matching the squashing
// transformation; for 2-bit automata each byte becomes four crumbs,
// most-significant first.
func SubSymbols(bits int, input []byte) []byte {
	if bits == 8 {
		return input
	}
	return AppendSubSymbols(make([]byte, 0, len(input)*8/bits), bits, input)
}

// Geometry implements Core.
func (e *Engine) Geometry() (bits, stride int) { return e.nfa.Bits, e.nfa.Stride }

// ResetState implements Core: it clears the inter-cycle active set.
func (e *Engine) ResetState() { e.prevActive.ClearAll() }

// StepBlock implements Core: the two-phase execution model, one cycle per
// Stride sub-symbols of subs.
func (e *Engine) StepBlock(subs []byte, t0 int, limitBits int, sink ReportSink, tracer Tracer) (enabled, active int64, peak int) {
	n := e.nfa
	for t := t0; len(subs) >= n.Stride; t, subs = t+1, subs[n.Stride:] {
		chunk := subs[:n.Stride]

		// State-transition phase (from previous cycle): enable successors.
		e.enabled.CopyFrom(e.always)
		if t == 0 {
			for i, w := range e.startOfData {
				e.enabled[i] |= w
			}
		}
		if t%2 == 0 {
			for i, w := range e.even {
				e.enabled[i] |= w
			}
		}
		e.prevActive.ForEach(func(i int) {
			for _, succ := range n.States[i].Out {
				e.enabled.Set(int(succ))
			}
		})

		// State-match phase: active = enabled ∧ match(chunk).
		e.active.ClearAll()
		e.enabled.ForEach(func(i int) {
			if n.States[i].Match.Has(chunk) {
				e.active.Set(i)
			}
		})

		// Reporting.
		base := t * n.Stride
		e.active.ForEach(func(i int) {
			s := &n.States[i]
			if !s.Report {
				return
			}
			bitPos := (base + s.ReportOffset) * n.Bits
			if limitBits < 0 || bitPos <= limitBits {
				sink(Report{BitPos: bitPos, Code: s.ReportCode, State: automata.StateID(i)})
			}
		})

		na := e.active.Count()
		enabled += int64(e.enabled.Count())
		active += int64(na)
		peak = max(peak, na)
		if tracer != nil {
			tracer.OnCycle(t, e.enabled, e.active)
		}
		e.prevActive, e.active = e.active, e.prevActive
	}
	return enabled, active, peak
}

// Run executes the automaton over input (a byte stream) and returns all
// reports sorted by (BitPos, Code). tracer may be nil.
func (e *Engine) Run(input []byte, tracer Tracer) ([]Report, Stats) {
	return RunBatch(e, input, 0, tracer)
}

// SortReports sorts reports by (BitPos, Code, State) — the canonical batch
// output order — in place, allocating nothing.
func SortReports(reports []Report) {
	slices.SortFunc(reports, func(a, b Report) int {
		return cmp.Or(cmp.Compare(a.BitPos, b.BitPos), cmp.Compare(a.Code, b.Code), cmp.Compare(a.State, b.State))
	})
}

// Run is a convenience one-shot execution. It uses the bit-parallel
// CompiledEngine; the scalar Engine remains available as the reference
// oracle (differential tests assert the two are byte-identical).
func Run(n *automata.NFA, input []byte) ([]Report, Stats, error) {
	c, err := Compile(n)
	if err != nil {
		return nil, Stats{}, err
	}
	r, s := c.NewEngine().Run(input, nil)
	return r, s, nil
}

// ReportKeys reduces reports to their geometry-independent identities,
// deduplicated and sorted — the canonical form for differential testing
// (two equivalent automata may report the same match through several split
// states).
func ReportKeys(reports []Report) [][2]int {
	seen := make(map[[2]int]bool, len(reports))
	var out [][2]int
	for _, r := range reports {
		k := r.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// SameReports reports whether two report lists denote the same matches
// (same geometry-independent keys).
func SameReports(a, b []Report) bool {
	ka, kb := ReportKeys(a), ReportKeys(b)
	if len(ka) != len(kb) {
		return false
	}
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}
