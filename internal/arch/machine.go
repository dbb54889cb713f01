package arch

import (
	"fmt"

	"impala/internal/automata"
	"impala/internal/bitvec"
	"impala/internal/interconnect"
	"impala/internal/place"
	"impala/internal/sim"
)

// Machine is the capsule-level execution model of a configured Impala (or
// CA-mode) device: per-group state-matching subarray images plus
// interconnect switch images, executed exactly the way the hardware
// pipeline operates — read one row per dimension per block, AND across a
// capsule's columns, AND with the enable vector produced by the wired-OR
// switch fabric. It is the architectural twin of the functional simulator
// and must produce identical reports for any input.
//
// Groups are either plain G4s or (for components beyond 1024 states)
// hierarchical G16s with a hyper switch — the paper's higher-level-switch
// extension.
type Machine struct {
	// Bits and Stride define the symbol geometry.
	Bits, Stride int
	// Groups are the configured switch groups.
	Groups []*Group
}

// Group is one switch group's full configuration.
type Group struct {
	// Match[block][dim] is a (domain-size × 256) subarray image: cell
	// (v, c) is 1 iff the state in block slot c accepts sub-symbol v at
	// dimension dim.
	Match [][]*bitvec.Matrix
	// Switches is the crossbar configuration (G4 or G16).
	Switches interconnect.Fabric
	// Per-slot start/occupancy vectors.
	always, even, anchored, occupied bitvec.Words
	// report metadata per slot (report counters/IDs in hardware).
	reports []slotReport
	// states maps slots back to automaton state IDs (debug/report identity).
	states []automata.StateID
}

type slotReport struct {
	report bool
	code   int
	offset int
}

// Check reports whether Build would configure a machine from n and p: it
// makes every check Build makes, in the same order and with the same errors
// — the automaton validates, the placement routes every transition, covers
// every state exactly once with each group the size of its fabric, every
// state is capsule-legal and every edge stays inside its group on a route
// the fabric covers — but allocates no fabric.
func Check(n *automata.NFA, p *place.Placement) error {
	_, err := check(n, p)
	return err
}

// CheckValidated is Check for an automaton the caller has validated and not
// changed since: a machine's load path, whose automaton artifact.Load or the
// machine itself validated, walks every state's rects once.
func CheckValidated(n *automata.NFA, p *place.Placement) error {
	_, err := locate(n, p)
	return err
}

// loc is a state's switch group and group-local slot.
type loc struct{ group, slot int32 }

// check is Check, returning every state's location for Build.
func check(n *automata.NFA, p *place.Placement) ([]loc, error) {
	if err := n.Validate(); err != nil {
		return nil, fmt.Errorf("arch: Build input invalid: %w", err)
	}
	return locate(n, p)
}

// locate is check past the automaton's validation.
func locate(n *automata.NFA, p *place.Placement) ([]loc, error) {
	if !p.Valid() {
		return nil, fmt.Errorf("arch: placement has %d uncovered transitions", p.TotalUncovered)
	}
	locs := make([]loc, n.NumStates())
	for i := range locs {
		locs[i].group = -1
	}
	placed, extra := 0, 0
	for gi, g := range p.G4s {
		for slot, id := range g.Slots {
			switch {
			case id < 0:
			case int(id) >= len(locs) || locs[id].group >= 0:
				extra++
			default:
				locs[id] = loc{group: int32(gi), slot: int32(slot)}
				placed++
			}
		}
	}
	if placed != n.NumStates() {
		return nil, fmt.Errorf("arch: placement covers %d of %d states", placed, n.NumStates())
	}
	if extra > 0 {
		return nil, fmt.Errorf("arch: placement fills %d more slots than its %d states", extra, n.NumStates())
	}
	for _, gp := range p.G4s {
		if slots := fabricSlots(gp.Hierarchical); len(gp.Slots) != slots {
			return nil, fmt.Errorf("arch: placement group has %d slots, fabric %d", len(gp.Slots), slots)
		}
	}
	for i := range n.States {
		s := &n.States[i]
		if _, err := capsuleRect(s.Match, i); err != nil {
			return nil, err
		}
		l, route := locs[i], interconnect.CheckG4
		if p.G4s[l.group].Hierarchical {
			route = interconnect.CheckG16
		}
		for _, t := range s.Out {
			tl := locs[t]
			if tl.group != l.group {
				return nil, fmt.Errorf("arch: edge %d->%d crosses switch groups", i, t)
			}
			if err := route(int(l.slot), int(tl.slot)); err != nil {
				return nil, err
			}
		}
	}
	return locs, nil
}

// capsuleRect returns the one rect a capsule-legal match set denotes. A set
// with exactly one non-empty rect is that rect; only otherwise does it pay
// for Normalize, which can still fold a set down to one rect.
func capsuleRect(ms automata.MatchSet, state int) (automata.Rect, error) {
	var rect automata.Rect
	for _, r := range ms {
		if r.Empty() {
			continue
		}
		if rect != nil {
			rect = nil
			break
		}
		rect = r
	}
	if rect != nil {
		return rect, nil
	}
	cover := ms.Normalize()
	if len(cover) != 1 {
		return nil, fmt.Errorf("arch: state %d is not capsule-legal (%d rects); run Refine first", state, len(cover))
	}
	return cover[0], nil
}

// fabricSlots is the state capacity of a G4 or, hierarchical, a G16.
func fabricSlots(hierarchical bool) int {
	if hierarchical {
		return interconnect.G16Size
	}
	return interconnect.G4Size
}

// BitstreamBytes returns the configuration payload, in bytes, of the machine
// Build configures from placement p at the given symbol geometry: per group,
// one (domain × 256) matching subarray per 256-slot block and dimension plus
// the switch images of its fabric. It reads only the placement's group
// kinds, so it costs no fabric.
func BitstreamBytes(bits, stride int, p *place.Placement) int {
	total := 0
	for _, g := range p.G4s {
		total += groupBytes(bits, stride, g.Hierarchical)
	}
	return total
}

func groupBytes(bits, stride int, hierarchical bool) int {
	sw := interconnect.G4ConfigBytes
	if hierarchical {
		sw = interconnect.G16ConfigBytes
	}
	return fabricSlots(hierarchical)*stride*automata.DomainSize(bits)/8 + sw
}

// Build configures a machine from a capsule-legal automaton and a valid
// placement of it: Check, then the subarray and switch images.
func Build(n *automata.NFA, p *place.Placement) (*Machine, error) {
	locs, err := check(n, p)
	if err != nil {
		return nil, err
	}
	m := &Machine{Bits: n.Bits, Stride: n.Stride}
	domain := automata.DomainSize(n.Bits)
	for _, gp := range p.G4s {
		var fabric interconnect.Fabric
		if gp.Hierarchical {
			fabric = interconnect.NewG16()
		} else {
			fabric = interconnect.NewG4()
		}
		slots := fabric.Slots()
		blocks := slots / interconnect.LocalSwitchSize
		u := &Group{
			Switches: fabric,
			Match:    make([][]*bitvec.Matrix, blocks),
			always:   bitvec.NewWords(slots),
			even:     bitvec.NewWords(slots),
			anchored: bitvec.NewWords(slots),
			occupied: bitvec.NewWords(slots),
			reports:  make([]slotReport, slots),
			states:   make([]automata.StateID, slots),
		}
		for b := 0; b < blocks; b++ {
			u.Match[b] = make([]*bitvec.Matrix, n.Stride)
			for d := 0; d < n.Stride; d++ {
				u.Match[b][d] = bitvec.NewMatrix(domain, interconnect.LocalSwitchSize)
			}
		}
		for i := range u.states {
			u.states[i] = -1
		}
		m.Groups = append(m.Groups, u)
	}

	for i := range n.States {
		s := &n.States[i]
		rect, _ := capsuleRect(s.Match, i)
		l := locs[i]
		u, slot := m.Groups[l.group], int(l.slot)
		block, col := slot/interconnect.LocalSwitchSize, slot%interconnect.LocalSwitchSize
		for d := 0; d < n.Stride; d++ {
			for _, v := range rect[d].Values() {
				u.Match[block][d].Set(int(v), col)
			}
		}
		u.occupied.Set(slot)
		u.states[slot] = automata.StateID(i)
		switch s.Start {
		case automata.StartAllInput:
			u.always.Set(slot)
		case automata.StartOfData:
			u.anchored.Set(slot)
		case automata.StartEven:
			u.even.Set(slot)
		}
		if s.Report {
			u.reports[slot] = slotReport{report: true, code: s.ReportCode, offset: s.ReportOffset}
		}
		for _, t := range s.Out {
			if err := u.Switches.Connect(slot, int(locs[t].slot)); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

// groupState is one switch group's per-stream working set.
type groupState struct {
	active, prev, enable bitvec.Words
	matchVec             bitvec.Words
}

// machineCore is the capsule-level implementation of the sim.Core step
// interface: the immutable Machine configuration plus per-stream group
// working sets and the switch-activity accumulators. It has no single
// whole-automaton state vector, so the per-cycle tracer is ignored.
type machineCore struct {
	m        *Machine
	gs       []groupState
	activity ActivityStats
}

// Geometry implements sim.Core.
func (c *machineCore) Geometry() (bits, stride int) { return c.m.Bits, c.m.Stride }

// ResetState implements sim.Core: it clears every group's inter-cycle
// active set and the stream's activity counters.
func (c *machineCore) ResetState() {
	for i := range c.gs {
		c.gs[i].prev.ClearAll()
	}
	c.activity = ActivityStats{}
}

// StepBlock implements sim.Core: per cycle of the block, one pass of the
// hardware pipeline — interconnect propagation, row reads + capsule AND per
// group, reporting.
func (c *machineCore) StepBlock(subs []byte, t0 int, limitBits int, sink sim.ReportSink, _ sim.Tracer) (enabled, active int64, peak int) {
	m := c.m
	S := m.Stride
	am := archMetricsPtr.Load()
	a0 := c.activity
	for t := t0; len(subs) >= S; t, subs = t+1, subs[S:] {
		chunk := subs[:S]
		na := 0
		for gi, u := range m.Groups {
			st := &c.gs[gi]
			// --- interconnect phase: propagate previous active states ---
			u.Switches.Propagate(st.prev, st.enable)
			lb, gr, cs := u.Switches.Activity(st.prev)
			c.activity.LocalSwitchActivations += int64(lb)
			c.activity.GlobalSwitchActivations += int64(gr)
			c.activity.CrossBlockSignals += int64(cs)
			// Start kinds.
			for w := range st.enable {
				st.enable[w] |= u.always[w]
				if t == 0 {
					st.enable[w] |= u.anchored[w]
				}
				if t%2 == 0 {
					st.enable[w] |= u.even[w]
				}
			}

			// --- state-match phase: row reads + capsule AND ---
			for w := range st.matchVec {
				st.matchVec[w] = ^uint64(0)
			}
			for b := range u.Match {
				base := b * interconnect.LocalSwitchSize / 64
				for d := 0; d < S; d++ {
					row := u.Match[b][d].Row(int(chunk[d]))
					for w, word := range row {
						st.matchVec[base+w] &= word
					}
				}
			}
			// active = enable ∧ match ∧ occupied.
			for w := range st.active {
				st.active[w] = st.enable[w] & st.matchVec[w] & u.occupied[w]
			}

			// --- reporting ---
			st.active.ForEach(func(slot int) {
				r := u.reports[slot]
				if !r.report {
					return
				}
				bitPos := (t*S + r.offset) * m.Bits
				if limitBits < 0 || bitPos <= limitBits {
					sink(sim.Report{BitPos: bitPos, Code: r.code, State: u.states[slot]})
				}
			})

			enabled += int64(st.enable.Count())
			na += st.active.Count()
			st.prev, st.active = st.active, st.prev
		}
		active += int64(na)
		peak = max(peak, na)
		c.activity.Cycles++
	}
	if am != nil {
		am.cycles.Add(c.activity.Cycles - a0.Cycles)
		am.local.Add(c.activity.LocalSwitchActivations - a0.LocalSwitchActivations)
		am.global.Add(c.activity.GlobalSwitchActivations - a0.GlobalSwitchActivations)
		am.cross.Add(c.activity.CrossBlockSignals - a0.CrossBlockSignals)
	}
	return enabled, active, peak
}

// Session is one incremental input stream over the configured machine: the
// immutable Machine is shared, the per-stream state (group enable/active
// vectors, carried sub-symbols, activity counters) lives here. It
// delegates chunking, odd-nibble carry and flush semantics to the same
// sim.Session core the functional engines use.
type Session struct {
	core  *machineCore
	inner *sim.Session
}

// NewSession prepares a streaming session over the machine; sink receives
// reports as they fire (nil to run for statistics only). Many sessions may
// run concurrently over one Machine.
func (m *Machine) NewSession(sink sim.ReportSink) *Session {
	if am := archMetricsPtr.Load(); am != nil {
		am.sessions.Inc()
	}
	core := &machineCore{m: m, gs: make([]groupState, len(m.Groups))}
	for i := range core.gs {
		slots := m.Groups[i].Switches.Slots()
		core.gs[i] = groupState{
			active:   bitvec.NewWords(slots),
			prev:     bitvec.NewWords(slots),
			enable:   bitvec.NewWords(slots),
			matchVec: bitvec.NewWords(slots),
		}
	}
	return &Session{core: core, inner: sim.NewSession(core, sink)}
}

// Feed consumes the next chunk of the stream (any size, including empty).
func (s *Session) Feed(chunk []byte) { s.inner.Feed(chunk) }

// Flush ends the stream, running the final zero-padded partial cycle.
func (s *Session) Flush() { s.inner.Flush() }

// Reset returns the session to the start-of-stream state.
func (s *Session) Reset() { s.inner.Reset() }

// Stats returns the functional activity statistics of the stream so far.
func (s *Session) Stats() sim.Stats { return s.inner.Stats() }

// Activity returns the switch-activity statistics of the stream so far,
// the input of the energy model.
func (s *Session) Activity() ActivityStats { return s.core.activity }

// Run executes the machine over a byte input and returns reports (sorted
// like the functional simulator's) plus switch-activity statistics for the
// energy model. It is a batch Feed+Flush wrapper over NewSession.
func (m *Machine) Run(input []byte) ([]sim.Report, ActivityStats) {
	var reports []sim.Report
	s := m.NewSession(func(r sim.Report) { reports = append(reports, r) })
	s.Feed(input)
	s.Flush()
	sim.SortReports(reports)
	return reports, s.Activity()
}

// BitstreamBytes returns the total configuration payload size of the
// machine in bytes (matching subarrays + switch images), the quantity the
// host transfers over memory-mapped I/O at configuration time: the
// package-level BitstreamBytes over its groups' fabric kinds.
func (m *Machine) BitstreamBytes() int {
	total := 0
	for _, u := range m.Groups {
		total += groupBytes(m.Bits, m.Stride, u.Switches.Slots() == interconnect.G16Size)
	}
	return total
}
