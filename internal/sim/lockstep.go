package sim

import "impala/internal/automata"

// Lane is the block of a lockstep execution form: a child engine over a
// sub-automaton closed under edges (a union of connected components), and
// the table that maps the child's state IDs to the IDs its reports carry.
type Lane struct {
	// New returns a fresh per-stream core over the block; nil for a lane
	// over no state.
	New func() Core
	// Orig[i] is the reported ID of the child's state i.
	Orig []automata.StateID
}

// Lockstep is the pooled, remapped shell of the block-diagonal execution
// form: one lane whose core steps every block of one automaton on the same
// sub-symbols — the software rendering of independent switch blocks sharing
// one broadcast input symbol — and whose reports the shell maps back to the
// automaton's state IDs. The tiered and sharded forms are built on it, their
// lane a dfa.Core that walks every DFA and steps one kernel over the states
// no DFA covers beside its walk, or that kernel alone; the lane's core sums
// the blocks' counts per cycle and emits their reports in cycle order, so a
// session over a lockstep core is byte-identical, reports and statistics
// both, to one over the whole automaton. A Lockstep is immutable and safe to
// share across goroutines; per-stream state lives in the cores it hands out.
type Lockstep struct {
	bits, stride int
	lane         Lane
	pool         *Pool // over lockstep cores, for Run
}

// NewLockstep returns the lockstep form of lane over an automaton of the
// given geometry. A lane over no state (a zero Lane) is valid: the core then
// steps nothing.
func NewLockstep(bits, stride int, lane Lane) *Lockstep {
	l := &Lockstep{bits: bits, stride: stride, lane: lane}
	l.pool = NewPool(l.NewCore)
	return l
}

// Lane returns the form's lane (read-only).
func (l *Lockstep) Lane() Lane { return l.lane }

// lockstepCore steps the lane's core and remaps its reports. The child sink
// is a closure built once, so steady-state stepping allocates nothing.
type lockstepCore struct {
	l     *Lockstep
	core  Core // nil for a lane over no state
	child ReportSink
	// sink is the sink of the block in progress; nil between blocks, so an
	// idle pooled core pins no finished request's session or reports.
	sink ReportSink
}

func (l *Lockstep) newCore() *lockstepCore {
	c := &lockstepCore{l: l}
	if l.lane.New != nil {
		orig := l.lane.Orig
		c.core = l.lane.New()
		c.child = func(r Report) {
			r.State = orig[r.State]
			c.sink(r)
		}
	}
	return c
}

// NewCore returns a fresh per-stream core over the lane.
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

// Geometry implements Core: the lane core's, whose symbols the shell hands
// it as they come (a DFA walker's may be bytes), or the automaton's for a
// lane over no state.
func (c *lockstepCore) Geometry() (bits, stride int) {
	if c.core != nil {
		return c.core.Geometry()
	}
	return c.l.bits, c.l.stride
}

// ResetState implements Core.
func (c *lockstepCore) ResetState() {
	if c.core != nil {
		c.core.ResetState()
	}
}

// StepBlock implements Core: the lane's core takes the block whole. The
// tracer is not passed down — the lane's core has no one state vector of the
// whole automaton.
func (c *lockstepCore) StepBlock(subs []byte, t0 int, limitBits int, sink ReportSink, _ Tracer) (enabled, active int64, peak int) {
	if c.core == nil {
		return 0, 0, 0
	}
	c.sink = sink
	enabled, active, peak = c.core.StepBlock(subs, t0, limitBits, c.child, nil)
	c.sink = nil
	return enabled, active, peak
}
