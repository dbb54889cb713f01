// Package impala is a software reproduction of "Impala: Algorithm/
// Architecture Co-Design for In-Memory Multi-Stride Pattern Matching"
// (HPCA 2020): a full offline compiler (V-TeSS squashing and striding,
// Espresso capsule refinement, genetic-algorithm placement onto the G4
// switch fabric) plus a cycle-accurate capsule-level machine that executes
// the resulting bitstreams, and analytical models for the architecture's
// throughput, area, energy and power.
//
// The package is a thin facade: give it regex rules and a design point, get
// back a Machine that matches input streams exactly as the hardware would,
// along with the performance model for that configuration. Match and
// NewStream serve on a bit-parallel compiled form; Run executes the
// capsule-level machine, whose bitstream images the first Run builds from
// the checked placement.
//
//	m, err := impala.CompileRegex([]string{"GET /", "POST /"}, impala.DefaultConfig())
//	matches := m.Match(packetBytes) // the serving path; m.Run is its hardware twin
//	model := m.Model() // 80 Gbps, mm², states, ...
package impala

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"

	"impala/internal/anml"
	"impala/internal/arch"
	"impala/internal/artifact"
	"impala/internal/automata"
	"impala/internal/backend"
	"impala/internal/core"
	"impala/internal/dfa"
	"impala/internal/espresso"
	"impala/internal/place"
	"impala/internal/regexc"
	"impala/internal/score"
	"impala/internal/shard"
	"impala/internal/sim"
)

// Config selects a design point of the compiler and machine.
type Config struct {
	// StrideDims is the number of 4-bit symbols processed per cycle:
	// 1, 2, 4 (the paper's best design, 16 bits/cycle) or 8.
	StrideDims int
	// CAMode targets the Cache-Automaton baseline instead: 8-bit symbols
	// with 256-row columns; StrideDims must then be 1 or 2.
	CAMode bool
	// Seed drives the placement search (deterministic given a value).
	Seed int64
	// DisableMinimize and DisableRefine expose the compiler ablations.
	DisableMinimize bool
	DisableRefine   bool
	// Tier enables the hybrid execution plan: connected components of the
	// compiled automaton whose subset construction stays within budget run
	// on a dense DFA fast path, the rest on the bit-parallel NFA engine.
	// Match and NewStream then run on the tiered engine (unless Score is
	// set); the plan travels inside the artifact, so loaded machines keep it.
	Tier bool
	// TierBudget caps each component's trial determinization in DFA states
	// (0 = the dfa package default). Components that exceed it fall back to
	// the NFA tier.
	TierBudget int
	// Shards > 1 partitions the compiled automaton's connected components
	// into that many independent shard engines (size-balanced, whole
	// components). Match and NewStream then execute all shards (unless Score
	// is set) and merge reports — identical output, but with Tier set the DFA
	// budgets apply per shard (more states on the fast path). The shards
	// step in lockstep on the calling goroutine, one core's work like
	// every other form; concurrency across requests is the caller's. The
	// partition travels inside the artifact, so loaded machines keep it.
	Shards int
	// Score attaches a per-transition weight table to the automaton passed
	// to CompileAutomaton (it must validate against that automaton): the
	// pipeline transforms it alongside the structure, and Match and NewStream
	// then score — max-plus accumulation, only the hits that clear the
	// table's threshold reported, each with its Match.Score. The compile
	// removes the states no path can carry to the threshold, so the sealed
	// automaton — and with it the placement, Model, and the binary Run and
	// Simulate — holds only the live states. The transformed table travels
	// inside the artifact as the SCOR section, so loaded machines keep it.
	// Tier and Shards compose with it: their plans are sealed into the
	// artifact and checked whenever a machine is built from it, and the
	// scored form runs on one bit-parallel kernel.
	Score *automata.Weights
}

// DefaultConfig returns the paper's best design point: 4-stride 4-bit
// processing (16 bits per cycle at 5 GHz = 80 Gbps).
func DefaultConfig() Config { return Config{StrideDims: 4} }

func (c Config) coreConfig() core.Config {
	bits := 4
	if c.CAMode {
		bits = 8
	}
	cc := core.Config{
		TargetBits:      bits,
		StrideDims:      c.StrideDims,
		DisableMinimize: c.DisableMinimize,
		DisableRefine:   c.DisableRefine,
		Espresso:        espresso.Options{},
	}
	if c.Tier {
		cc.Tier = &dfa.TierOptions{CCMaxStates: c.TierBudget}
	}
	cc.Shards = c.Shards
	cc.Weights = c.Score
	return cc
}

// Match is one pattern hit.
type Match struct {
	// End is the 1-based byte offset just past the last matched byte (a
	// match of "abc" against "xabc" has End 4).
	End int
	// Pattern is the index of the matching pattern in the CompileRegex
	// input slice.
	Pattern int
	// Score is the hit's accumulated max-plus score on a machine with a
	// weight table: the best total transition weight over all paths that
	// completed the match, saturated to ±automata.ScoreLimit. It is 0 on a
	// binary machine.
	Score float64
}

// Machine is a compiled, placed, configured pattern-matching engine. It is
// built either by running the compile pipeline (CompileRegex, CompileANML,
// CompileAutomaton) or by loading a saved artifact (LoadMachine) — the
// compile-offline/match-online split. Either way the machine is its sealed
// artifact and the one form it serves, built from that artifact by the same
// constructor, so a loaded machine executes identically to the freshly
// compiled one it was saved from, with no pipeline work.
type Machine struct {
	// a is the sealed artifact: the transformed automaton, the placement,
	// the design point, the compile trace and every plan. Everything but
	// Match and NewStream reads it, and Artifact hands out copies of it.
	a   *artifact.Artifact
	cfg Config
	// serving is the one form Match and NewStream run on, picked when the
	// machine is assembled (newMachine). Every form shares this method set.
	serving interface {
		AppendRun(dst []sim.Report, input []byte) ([]sim.Report, sim.Stats)
		NewSession(sink sim.ReportSink) *sim.Session
	}
	// capsule is the capsule-level machine Run executes, built from the
	// placement on the first Run: nothing on the serving side reads it, so
	// a tenant that only serves never pays for its fabric images.
	capsule func() *arch.Machine
}

// CompileRegex compiles the patterns through the full Impala pipeline:
// regex → homogeneous 8-bit NFA → V-TeSS transformation → Espresso
// refinement → G4 placement → bitstream.
func CompileRegex(patterns []string, cfg Config) (*Machine, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("impala: no patterns")
	}
	rules := make([]regexc.Rule, len(patterns))
	for i, p := range patterns {
		rules[i] = regexc.Rule{Pattern: p, Code: i}
	}
	nfa, err := regexc.Compile(rules)
	if err != nil {
		return nil, err
	}
	return CompileAutomaton(nfa, cfg)
}

// CompileANML compiles an ANML XML document (the Micron AP / ANMLZoo
// format) through the pipeline. ANML report codes become Match.Pattern
// values.
func CompileANML(r io.Reader, cfg Config) (*Machine, error) {
	nfa, err := anml.Parse(r)
	if err != nil {
		return nil, err
	}
	return CompileAutomaton(nfa, cfg)
}

// CompileAutomaton runs the pipeline on an existing homogeneous 8-bit
// stride-1 automaton (for workloads not expressed as regex). Report codes
// of the automaton become Match.Pattern values. The compile is sealed into
// its artifact (artifact.FromResult, as impalac seals it) and the machine is
// built from that, as LoadMachine builds one.
func CompileAutomaton(nfa *automata.NFA, cfg Config) (*Machine, error) {
	res, err := core.Compile(nfa, cfg.coreConfig())
	if err != nil {
		return nil, err
	}
	pl, err := place.Place(res.NFA, place.Options{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	if !pl.Valid() {
		return nil, fmt.Errorf("impala: placement left %d transitions unrouted", pl.TotalUncovered)
	}
	return newMachine(artifact.FromResult(res, pl, nfa, artifact.Meta{CAMode: cfg.CAMode, Seed: cfg.Seed}), nil, cfg)
}

// buildCapsule configures the capsule machine a Machine's first Run
// executes; tests swap it to count builds.
var buildCapsule = arch.Build

// newMachine is the one place a Machine is assembled, from an artifact a
// compile sealed or one that was loaded; a non-nil keep restricts the
// artifact's shard plan to that shard subset (the worker side of cluster
// dispatch; MachineFromArtifactDomain checks there is a plan), and
// cfg is the design point Config reports. It refuses an artifact sealed for
// another backend, checks every sealed plan against the automaton, checks
// that the placement builds a capsule machine (arch.Check, which allocates
// no fabric; Run builds the machine on first use) and builds the one form
// Match and NewStream run — scored, sharded, tiered, then the plain
// bit-parallel kernel. A scored machine checks its tier and shard plans but
// unseals no form over them: the scored kernel steps every state its shards
// hold. A shard subset (a topology worker's) is scored alone: a score belongs
// to a state and a shard to whole components, so across the workers every
// state is scored once.
func newMachine(a *artifact.Artifact, keep []int, cfg Config) (*Machine, error) {
	if got := a.Meta.BackendName(); got != backend.DefaultName {
		return nil, fmt.Errorf("impala: artifact was sealed for backend %q, this engine runs %q: %w",
			got, backend.DefaultName, backend.ErrMismatch)
	}
	m := &Machine{a: a, cfg: cfg}
	n, w := a.NFA, a.Score
	// The automaton is validated once, by artifact.Load on a loaded artifact
	// and here on any other, and every check and form below takes it as
	// validated: a sub-automaton of a valid one is valid.
	if !a.Validated() {
		if err := n.Validate(); err != nil {
			return nil, fmt.Errorf("impala: invalid automaton: %w", err)
		}
	}
	var err error
	if a.Tier != nil {
		if w != nil {
			_, err = dfa.UnsealSelection(n, a.Tier)
		} else {
			m.serving, err = dfa.Unseal(n, a.Tier)
		}
		if err != nil {
			return nil, fmt.Errorf("impala: artifact tier plan does not unseal: %w", err)
		}
	}
	if a.Shards != nil {
		var ids []automata.StateID
		if w != nil {
			ids, err = shard.UnsealStates(n, a.Shards, keep)
		} else {
			m.serving, err = shard.UnsealShards(n, a.Shards, keep)
		}
		if err != nil {
			return nil, fmt.Errorf("impala: artifact shard plan does not unseal: %w", err)
		}
		if w != nil && len(ids) < n.NumStates() {
			n, w = n.Induced(ids), w.Induced(n, ids)
		}
	}
	if err := arch.CheckValidated(a.NFA, a.Placement); err != nil {
		return nil, fmt.Errorf("impala: placement does not build: %w", err)
	}
	switch {
	case w != nil:
		m.serving, err = score.CompileValidated(n, w)
	case m.serving == nil:
		m.serving = sim.CompileValidated(n)
	}
	if err != nil {
		return nil, fmt.Errorf("impala: automaton does not compile: %w", err)
	}
	m.capsule = sync.OnceValue(func() *arch.Machine {
		am, err := buildCapsule(a.NFA, a.Placement)
		if err != nil {
			panic(fmt.Sprintf("impala: checked placement does not build: %v", err))
		}
		return am
	})
	return m, nil
}

// Artifact returns the machine's sealed artifact — the transformed
// automaton, the placement, the design point, the compile trace and every
// plan, everything LoadMachine needs to rebuild an identical engine without
// re-running the pipeline. A loaded machine's is the artifact it was loaded
// from, build time, topology placement and other domains' shards included.
// The result is a shallow copy: its Meta and its sections may be replaced
// (SetTopo, SetBackend) without touching the machine, but the automaton,
// placement, plans and weight table it points to are the machine's own and
// must not be modified.
func (m *Machine) Artifact() *artifact.Artifact {
	a := *m.a
	return &a
}

// SaveArtifact writes the machine's compiled artifact to w.
func (m *Machine) SaveArtifact(w io.Writer) error { return m.a.Save(w) }

// LoadMachine reconstructs a Machine from a saved artifact: the stored
// placement is checked to build a capsule machine (the same checks, and
// errors, as at compile time) and the serving form is compiled from the
// stored automaton and plans — no compile-pipeline stage runs, and the
// capsule machine itself is built only by the first Run. The result matches
// byte-identically with the machine that was saved.
func LoadMachine(r io.Reader) (*Machine, error) {
	a, err := artifact.Load(r)
	if err != nil {
		return nil, err
	}
	return MachineFromArtifact(a)
}

// LoadMachineFile is LoadMachine over a file path.
func LoadMachineFile(path string) (*Machine, error) {
	a, err := artifact.LoadFile(path)
	if err != nil {
		return nil, err
	}
	return MachineFromArtifact(a)
}

// MachineFromArtifact builds the execution engines from an already decoded
// artifact, which the machine then holds. The facade executes only the
// default Impala target (the placement it checks, and the capsule machine
// Run builds from it, assume the G4 fabric): artifacts sealed for another
// backend are rejected with backend.ErrMismatch rather than silently run
// under the wrong hardware model — impala-serve tenants and impala-sim -load
// both go through here.
func MachineFromArtifact(a *artifact.Artifact) (*Machine, error) {
	return newMachine(a, nil, loadedConfig(a))
}

// LoadMachineFileDomain loads an artifact and builds the worker-side
// machine for one topology domain: only the shards the artifact's TOPO
// placement assigns to the named domain get engines, so the machine's
// matches cover exactly that domain's shard subset. The frontend re-merges
// the per-domain streams into the full report set.
func LoadMachineFileDomain(path, domain string) (*Machine, error) {
	a, err := artifact.LoadFile(path)
	if err != nil {
		return nil, err
	}
	return MachineFromArtifactDomain(a, domain)
}

// MachineFromArtifactDomain is MachineFromArtifact restricted to the shard
// subset the artifact's topology placement assigns to the named domain.
// The artifact must carry both SHRD and TOPO sections.
func MachineFromArtifactDomain(a *artifact.Artifact, domain string) (*Machine, error) {
	if a.Topo == nil {
		return nil, fmt.Errorf("impala: artifact carries no topology placement (compile with -topo)")
	}
	if a.Shards == nil {
		return nil, fmt.Errorf("impala: artifact topology placement without a shard plan")
	}
	idx := a.Topo.Topology.DomainIndex(domain)
	if idx < 0 {
		return nil, fmt.Errorf("impala: topology has no domain %q (domains: %s)",
			domain, strings.Join(a.Topo.Topology.Names(), ", "))
	}
	keep := a.Topo.ShardsIn(idx)
	if keep == nil {
		keep = []int{} // valid domain, zero shards: an idle worker
	}
	return newMachine(a, keep, loadedConfig(a))
}

// loadedConfig is the design point an artifact was compiled at, as far as its
// metadata and plans record it.
func loadedConfig(a *artifact.Artifact) Config {
	cfg := Config{
		StrideDims: a.Meta.Stride,
		CAMode:     a.Meta.CAMode,
		Seed:       a.Meta.Seed,
		Tier:       a.Tier != nil,
		Score:      a.Score,
	}
	if a.Shards != nil {
		cfg.Shards = a.Shards.Plan.Shards
		for _, t := range a.Shards.Tiers {
			cfg.Tier = cfg.Tier || t != nil
		}
	}
	return cfg
}

// Config returns the design point this machine was compiled at. For a
// loaded machine it is reconstructed from the artifact metadata, so
// callers can inspect how a saved engine was configured.
func (m *Machine) Config() Config { return m.cfg }

// Geometry returns the machine's symbol geometry: sub-symbol bit width and
// sub-symbols consumed per cycle.
func (m *Machine) Geometry() (bits, stride int) {
	return m.a.NFA.Bits, m.a.NFA.Stride
}

// Run matches the input against all patterns using the capsule-level
// machine (the hardware execution model) and returns matches sorted by end
// offset. It is binary on every machine: no Score is set. The first call
// builds the capsule machine's subarray and switch images from the
// placement (about 80 KB per G4, once per Machine, whichever goroutine gets
// there first); the serving path never reads them.
func (m *Machine) Run(input []byte) []Match {
	reports, _ := m.capsule().Run(input)
	return appendMatches(nil, reports)
}

// Simulate matches the input using the scalar functional graph simulator
// instead of the capsule-level machine: the binary cross-check of Run, which
// it always agrees with, on every machine. The error is the simulator's.
func (m *Machine) Simulate(input []byte) ([]Match, error) {
	e, err := sim.NewEngine(m.a.NFA)
	if err != nil {
		return nil, err
	}
	reports, _ := e.Run(input, nil)
	return appendMatches(nil, reports), nil
}

// Match is the serving-path one-shot: it matches input on a pooled
// engine, so concurrent callers share the compiled form and steady-state
// requests allocate no per-request engine. On a tiered machine the DFA
// fast path handles its components with one table walk per sub-symbol; on
// a sharded machine the shards step in lockstep; on a machine with a weight
// table only the hits that clear its threshold are returned, each scored.
// Whatever the form, a call is one core's work on the calling goroutine;
// concurrency across requests is the caller's. Matches come in (End,
// Pattern) order, one per distinct pair — the best score where several
// reporting states denote it, the quantity the compile pipeline preserves
// across geometries. A binary machine's matches are Run's and Simulate's.
func (m *Machine) Match(input []byte) []Match { return m.AppendMatch(nil, input) }

// reportBufs holds the report buffers AppendMatch runs into, shared by every
// machine: a Report holds no pointer, so an idle buffer pins nothing, and
// there is one buffer per call in flight, not one per machine.
var reportBufs = sync.Pool{New: func() any { return new([]sim.Report) }}

// AppendMatch is Match appending its matches to dst and returning the
// extended slice; dst's own rows are left as they are, and none of the new
// ones is folded into them. The engine's reports go to a pooled buffer, so a
// steady-state call into a dst with room allocates nothing for its matches,
// however many it finds.
func (m *Machine) AppendMatch(dst []Match, input []byte) []Match {
	buf := reportBufs.Get().(*[]sim.Report)
	reports, _ := m.serving.AppendRun((*buf)[:0], input)
	dst = appendMatches(dst, reports)
	*buf = reports
	reportBufs.Put(buf)
	return dst
}

// MatchScored is Match on a machine that must carry a weight table.
//
// Deprecated: Match scores on a machine with a weight table.
func (m *Machine) MatchScored(input []byte) ([]Match, error) {
	if m.a.Score == nil {
		return nil, fmt.Errorf("impala: machine carries no weight table (compile with Config.Score or load a scored artifact)")
	}
	return m.Match(input), nil
}

// ScoreInfo summarizes the machine's sealed weight table for display (nil
// when the machine carries none) — the whole table, also on a topology
// worker that scores only its own shards.
type ScoreInfo struct {
	// Threshold is the report threshold: Match and NewStream suppress the
	// hits scoring below it.
	Threshold float64
	// Edges is the number of weighted transitions in the sealed table.
	Edges int
	// ScalarStates counts the table's states whose in-edge weights are
	// heterogeneous (a property of the weight table; every state is scored
	// by the same pass).
	ScalarStates int
}

// ScoreInfo returns the scoring summary, or nil for unscored machines.
func (m *Machine) ScoreInfo() *ScoreInfo {
	w := m.a.Score
	if w == nil {
		return nil
	}
	return &ScoreInfo{
		Threshold:    w.Threshold,
		Edges:        w.NumEdges(),
		ScalarStates: w.MixedStates(m.a.NFA),
	}
}

// Stream is one incremental input stream over the compiled machine: bytes
// arrive in arbitrary chunks (a packet flow, a file read loop) and the
// callback fires as matches complete, with no per-chunk allocation in
// steady state. Many streams may run concurrently over one Machine — the
// compiled form is immutable and shared; each stream owns only its state
// vectors. A Stream is not safe for concurrent use by itself.
//
// Several split states can report the same (End, Pattern) match in nearby
// cycles; reports arrive in cycle order, and two can denote the same match
// only if their bit positions lie in the same byte, which bounds their cycle
// distance by 8/bitsPerCycle < 8. So the stream tracks a match for 8 cycles
// after its first report (the collision window) and then retires it. On a
// binary machine a match fires at its first report and the duplicates are
// dropped. On a machine with a weight table the duplicates' scores can
// differ, so emission is deferred: a match fires when it retires — once
// every report that could still raise its score has arrived — carrying the
// max, and Flush drains the window.
type Stream struct {
	sess         *sim.Session
	emit         func(Match) // nil to count only
	deferred     bool
	bitsPerCycle int
	curCycle     int
	// seen holds the matches still inside the window, in first-report order
	// (the emission order of either policy).
	seen []windowEntry
}

type windowEntry struct {
	m   Match
	cyc int
}

// NewStream opens an incremental stream over the machine. onMatch is
// invoked once per distinct match as it completes (nil to count only); on a
// machine with a weight table, once per distinct threshold-clearing match,
// with the best score over all reports that denote it.
func (m *Machine) NewStream(onMatch func(Match)) *Stream {
	s := &Stream{emit: onMatch, deferred: m.a.Score != nil, bitsPerCycle: m.a.NFA.BitsPerCycle(), curCycle: -1}
	s.sess = m.serving.NewSession(s.report)
	return s
}

func (s *Stream) report(r sim.Report) {
	cyc := (r.BitPos - 1) / s.bitsPerCycle
	if cyc > s.curCycle {
		s.curCycle = cyc
		s.retire(cyc - 8)
	}
	end := r.BitPos / 8
	for i := range s.seen {
		if e := &s.seen[i]; e.m.End == end && e.m.Pattern == r.Code {
			e.m.Score = max(e.m.Score, r.Score)
			return
		}
	}
	e := windowEntry{m: Match{End: end, Pattern: r.Code, Score: r.Score}, cyc: cyc}
	s.seen = append(s.seen, e)
	if !s.deferred && s.emit != nil {
		s.emit(e.m)
	}
}

// retire drops every entry first reported before cyc, emitting it when the
// policy defers emission to this point.
func (s *Stream) retire(cyc int) {
	keep := s.seen[:0]
	for _, e := range s.seen {
		if e.cyc >= cyc {
			keep = append(keep, e)
		} else if s.deferred && s.emit != nil {
			s.emit(e.m)
		}
	}
	s.seen = keep
}

// Feed consumes the next chunk of the stream; matches that complete inside
// it (or that straddle earlier chunk boundaries) fire the callback — on a
// machine with a weight table, those whose collision window closes inside
// it, with their final score. Match end offsets are absolute within the
// stream.
func (s *Stream) Feed(chunk []byte) { s.sess.Feed(chunk) }

// Write implements io.Writer, so a stream can terminate any byte pipeline.
func (s *Stream) Write(p []byte) (int, error) {
	s.sess.Feed(p)
	return len(p), nil
}

// Flush ends the stream, completing any final partial cycle; every match
// still inside the collision window then fires if its emission was
// deferred. Feed after Flush panics; Reset starts a new stream. Flush also
// empties the collision window: the next stream run on this value starts
// clean, so a legitimate repeat of an earlier match (same end offset and
// pattern in a fresh stream) is never suppressed by stale entries.
func (s *Stream) Flush() {
	s.sess.Flush()
	s.curCycle = -1
	s.retire(int(^uint(0) >> 1))
}

// Reset returns the stream to the start-of-stream state for reuse; matches
// still held in the window for deferred emission are dropped, not emitted.
func (s *Stream) Reset() {
	s.sess.Reset()
	s.curCycle = -1
	s.seen = s.seen[:0]
}

// Stats returns the functional activity statistics of the stream so far.
func (s *Stream) Stats() sim.Stats { return s.sess.Stats() }

// appendMatches folds reports, sorted by BitPos, into one Match per (End,
// Pattern) in first-report order, keeping the best score, and appends them to
// dst. Every duplicate of a match lies inside the short run of reports
// sharing its End, which is the tail of what this call appended, so the fold
// looks no further back than that, and never into dst's own rows.
func appendMatches(dst []Match, reports []sim.Report) []Match {
	base := len(dst)
	out := slices.Grow(dst, len(reports))
next:
	for _, r := range reports {
		end := r.BitPos / 8
		for i := len(out) - 1; i >= base && out[i].End == end; i-- {
			if out[i].Pattern == r.Code {
				out[i].Score = max(out[i].Score, r.Score)
				continue next
			}
		}
		out = append(out, Match{End: end, Pattern: r.Code, Score: r.Score})
	}
	return out
}

// Model summarizes the machine's hardware cost and performance.
type Model struct {
	// Design point.
	BitsPerCycle int
	FreqGHz      float64
	// ThroughputGbps is the deterministic line rate.
	ThroughputGbps float64
	// States is the number of STEs after transformation; OriginalStates
	// before.
	States, OriginalStates int
	// G4s is the number of group-of-four switch units used.
	G4s int
	// AreaMM2 is the silicon area of the configured design at 14nm.
	AreaMM2 float64
	// ThroughputPerMM2 is the Figure 11 metric for this workload.
	ThroughputPerMM2 float64
	// BitstreamBytes is the configuration payload size.
	BitstreamBytes int
	// CompileStages traces the V-TeSS pipeline (name, states, transitions).
	CompileStages []StageInfo
}

// StageInfo mirrors one compiler stage for the model report.
type StageInfo struct {
	Name        string
	States      int
	Transitions int
}

// Model returns the performance/cost model of this machine. It is
// available for loaded machines too: the pre-transformation shape and
// compile-stage trace travel inside the artifact.
func (m *Machine) Model() Model {
	n, pl := m.a.NFA, m.a.Placement
	d := arch.Design{Arch: arch.Impala, Bits: 4, Stride: n.Stride}
	if m.a.Meta.CAMode {
		d = arch.Design{Arch: arch.CacheAutomaton, Bits: 8, Stride: n.Stride}
	}
	area := arch.AreaBreakdown(d, n.NumStates())
	md := Model{
		BitsPerCycle:     d.BitsPerCycle(),
		FreqGHz:          d.FreqGHz(),
		ThroughputGbps:   d.ThroughputGbps(),
		States:           n.NumStates(),
		OriginalStates:   m.a.Meta.OriginalStates,
		G4s:              len(pl.G4s),
		AreaMM2:          area.TotalMM2(),
		ThroughputPerMM2: arch.ThroughputPerArea(d, n.NumStates()),
		BitstreamBytes:   arch.BitstreamBytes(n.Bits, n.Stride, pl),
	}
	for _, s := range m.a.Stages {
		md.CompileStages = append(md.CompileStages, StageInfo{Name: s.Name, States: s.States, Transitions: s.Transitions})
	}
	return md
}
