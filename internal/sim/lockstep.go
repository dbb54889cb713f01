package sim

import "impala/internal/automata"

// Lane is one block of a lockstep execution form: a child engine over a
// sub-automaton closed under edges (a union of connected components), and
// the table that maps the child's state IDs to the IDs its reports carry.
type Lane struct {
	// New returns a fresh per-stream core over the block.
	New func() Core
	// Orig[i] is the reported ID of the child's state i.
	Orig []automata.StateID
}

// Lockstep is the block-diagonal execution form: lanes whose blocks
// partition one automaton's states, all stepped on the same chunk every
// cycle — the software rendering of independent switch blocks sharing one
// broadcast input symbol. Because the blocks partition the states, the
// lanes' enabled/active counts sum to exactly the whole automaton's and
// their report sets are disjoint, so a session over a lockstep core is
// byte-identical, reports and statistics both, to one over the whole
// automaton. The tiered form (a DFA lane beside an NFA lane) and the
// sharded form (one walker over every shard's DFA beside one kernel over the
// rest) are both built from it. A Lockstep is immutable and safe to share
// across goroutines; per-stream state lives in the cores it hands out.
type Lockstep struct {
	bits, stride int
	lanes        []Lane
	pool         *Pool // over lockstep cores, for Run
}

// NewLockstep returns the lockstep form of lanes over an automaton of the
// given geometry. No lanes is valid: the core then steps nothing.
func NewLockstep(bits, stride int, lanes []Lane) *Lockstep {
	l := &Lockstep{bits: bits, stride: stride, lanes: lanes}
	l.pool = NewPool(l.NewCore)
	return l
}

// Lanes returns the form's lanes (read-only), for composing it into a
// larger lockstep form.
func (l *Lockstep) Lanes() []Lane { return l.lanes }

// lockstepCore steps one child core per lane as a single Core. The child
// sinks are closures built once, so steady-state stepping allocates nothing.
type lockstepCore struct {
	l     *Lockstep
	cores []Core
	sinks []ReportSink
	// sink is the sink of the block in progress; nil between blocks, so an
	// idle pooled core pins no finished request's session or reports.
	sink ReportSink
}

func (l *Lockstep) newCore() *lockstepCore {
	c := &lockstepCore{
		l:     l,
		cores: make([]Core, len(l.lanes)),
		sinks: make([]ReportSink, len(l.lanes)),
	}
	for i, lane := range l.lanes {
		orig := lane.Orig
		c.cores[i] = lane.New()
		c.sinks[i] = func(r Report) {
			r.State = orig[r.State]
			c.sink(r)
		}
	}
	return c
}

// NewCore returns a fresh per-stream core over all lanes.
func (l *Lockstep) NewCore() Core { return l.newCore() }

// NewSession returns a streaming session over a fresh core. Many sessions
// may run concurrently over one Lockstep.
func (l *Lockstep) NewSession(sink ReportSink) *Session {
	return NewSession(l.newCore(), sink)
}

// Run executes the form over input on a pooled core and returns the sorted
// reports and statistics. It is safe for concurrent use.
func (l *Lockstep) Run(input []byte) ([]Report, Stats) { return l.pool.Run(input) }

// AppendRun is Run appending its reports to dst (Pool.AppendRun).
func (l *Lockstep) AppendRun(dst []Report, input []byte) ([]Report, Stats) {
	return l.pool.AppendRun(dst, input)
}

// Geometry implements Core.
func (c *lockstepCore) Geometry() (bits, stride int) { return c.l.bits, c.l.stride }

// ResetState implements Core.
func (c *lockstepCore) ResetState() {
	for _, core := range c.cores {
		core.ResetState()
	}
}

// StepBlock implements Core: every lane consumes the same sub-symbols. A
// single lane takes the block whole. Several lanes stay cycle-interleaved —
// each is handed the block one cycle at a time — because their reports must
// reach the sink in cycle order (the facade's collision window retires on
// it) and because the per-cycle sum of the lanes' active counts is what
// PeakActive is the maximum of. The forms built on this never have more than
// two lanes: every DFA of a tiered or sharded form is walked by one dfa.Core
// (which overlaps its DFAs' table misses itself and, alone, takes the whole
// block) and everything else runs on one kernel, so "several" here is a DFA
// walker beside a kernel. The tracer is not passed down — no lane has the
// whole automaton's state vector.
func (c *lockstepCore) StepBlock(subs []byte, t0 int, limitBits int, sink ReportSink, _ Tracer) (enabled, active int64, peak int) {
	c.sink = sink
	if len(c.cores) == 1 {
		enabled, active, peak = c.cores[0].StepBlock(subs, t0, limitBits, c.sinks[0], nil)
	} else {
		S := c.l.stride
		for t := t0; len(subs) >= S; t, subs = t+1, subs[S:] {
			var na int64
			for i, core := range c.cores {
				e, a, _ := core.StepBlock(subs[:S], t, limitBits, c.sinks[i], nil)
				enabled += e
				na += a
			}
			active += na
			peak = max(peak, int(na))
		}
	}
	c.sink = nil
	return enabled, active, peak
}
