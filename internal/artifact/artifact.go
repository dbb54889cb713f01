// Package artifact is the versioned on-disk form of a compiled machine —
// the compile-offline half of the paper's deployment model. A compile
// (V-TeSS transformation, Espresso refinement, G4 placement) is expensive
// and runs once; matching runs forever. The artifact captures everything
// the match-online side needs to reconstruct an execution engine without
// re-running any of the pipeline: the automaton shape and stride/squash
// metadata, the per-state match-set tables (the subarray column images),
// the successor lists (the rows of the dense successor matrix, stored
// sparsely and re-densified by sim.Compile on load), and the G4/G16
// placement the bitstream was generated from — plus whatever execution
// plans the compile made, and for non-default compile targets a backend tag
// and the backend's own sealed section.
//
// The container is a strict little-endian binary format:
//
//	preamble (16 bytes)
//	  magic   "IMPALA"          [6]byte
//	  version uint16            (Version)
//	  flags   uint32            (reserved, zero)
//	  crc32c  uint32            Castagnoli CRC of every byte after the preamble
//	body: sections, each
//	  fourcc  [4]byte
//	  length  uint64
//	  payload [length]byte
//
// The sections are the rows of one table, sectionTable, listed in the order
// Save writes them and the only order Load accepts. Every artifact carries
// "META" (geometry, design point, shape counts), "STAG" (compile-stage
// trace), "AUTM" (states: match rects as raw 256-bit masks per dimension,
// start kinds, report metadata, out-edges) and "PLAC" (per-group slot
// assignments). The rest are optional: "BKND" (a non-default compile
// target's own sealed section; its name is a trailing META field), "TIER"
// and "DFAT" (the tier-selection stage: the per-component DFA/NFA plan and
// the union DFA's tables in the form they execute in — one uint16 table per
// stride phase, or per byte of the cycle for a DFA that steps bytes, one
// record per cycle-boundary state, one flat report-entry array; the step is a
// header byte, which Load holds to the step the class map of AUTM's rects
// takes, a map it derives rather than reads), "SHRD" (the shard-plan stage:
// the component-to-shard partition and each shard's tier seal as nested
// TIER/DFAT blobs), "TOPO" (the cluster
// placement: the normalized topology and the shard-to-domain assignment) and
// "SCOR" (the per-transition weight table and report threshold). A row may
// name one section it needs and one it refuses; there are three such rules
// (DFAT needs TIER, TOPO needs SHRD, TIER refuses SHRD), and every other
// combination composes. Each plan describes itself: META copies none of
// them. Each section's layout is written once, as one function that Save
// walks to encode the section and Load to decode it (codec). The encoding
// is canonical: Save output is deterministic, and Load accepts only what
// Save writes — sections in the table's order, reserved and padding bytes
// zero, flags 0 or 1 — so whatever loads saves back byte-identically, which
// the property tests, FuzzLoad and the v8 golden files in testdata/v8 pin.
//
// Every Load validates the magic, version, CRC and all structural bounds
// before returning. A DFA table is read once: the loop that decodes it, four
// entries a read, also finds its largest successor, and the DFAT layout
// refuses the table on that maximum; its fixed-size records are walked in
// bulk (codec.records). Stat decodes only the rows the table marks for it
// (META and STAG), still CRC-checking the whole file, so header inspection of
// a multi-megabyte artifact does not decode the automaton.
package artifact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
	"time"

	"impala/internal/automata"
	"impala/internal/backend"
	"impala/internal/core"
	"impala/internal/dfa"
	"impala/internal/interconnect"
	"impala/internal/place"
	"impala/internal/shard"
	"impala/internal/topo"
)

// Version is the current container version. Load accepts only this
// version: the format carries compiled internals, so cross-version
// compatibility is a recompile, not a migration. Versions 2 to 5 added
// TIER/DFAT, SHRD, TOPO and SCOR in turn, 6 the phase-split DFAT layout, 7
// drops META's copies of the tier, shard and score plans and lets SCOR ride
// beside TIER and SHRD, and 8 seals a DFA that steps bytes with one table per
// byte of the cycle, its step in DFAT's header.
const Version = 8

var magic = [6]byte{'I', 'M', 'P', 'A', 'L', 'A'}

// Sentinel errors for the distinguishable failure classes. All are wrapped
// with context; test with errors.Is.
var (
	ErrBadMagic  = errors.New("artifact: not an impala artifact (bad magic)")
	ErrVersion   = errors.New("artifact: unsupported container version")
	ErrChecksum  = errors.New("artifact: checksum mismatch (corrupted or truncated)")
	ErrTruncated = errors.New("artifact: truncated file")
	ErrCorrupt   = errors.New("artifact: structurally invalid")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// section is one row of the section table.
type section struct {
	id string
	// layout is the section's one statement of its payload, walked by Save
	// to encode it and by Load to decode it (see codec).
	layout func(c *codec, a *Artifact)
	// has reports whether an optional row's section is in the artifact;
	// a row without it is required. Stat decodes the stat rows.
	has  func(a *Artifact) bool
	stat bool
	// needs names a section that must ride with this one and refuses one
	// that must not; why is the reason, for the error.
	needs, refuses, why string
}

// sectionTable is the container's one statement of its sections: Save
// writes them in this order, Load and Stat accept no other. Checks that
// compare the values of two sections are validate's.
var sectionTable = []section{
	{id: "META", stat: true, layout: layoutMeta},
	{id: "STAG", stat: true, layout: layoutStages},
	{id: "AUTM", layout: layoutNFA},
	{id: "PLAC", layout: layoutPlacement},
	{id: "BKND", layout: layoutBackend,
		has: func(a *Artifact) bool { return len(a.BackendPayload) > 0 }},
	{id: "TIER", refuses: "SHRD", why: "a sharded artifact tiers per shard",
		layout: func(c *codec, a *Artifact) {
			if c.load {
				a.Tier = &dfa.Sealed{}
			}
			layoutTierPlan(c, &a.Tier.Plan)
		},
		has: func(a *Artifact) bool { return a.Tier != nil }},
	{id: "DFAT", needs: "TIER", why: "the tables are the tier plan's DFA",
		layout: func(c *codec, a *Artifact) { layoutDFATable(c, a, &a.Tier.DFA) },
		has:    func(a *Artifact) bool { return a.Tier != nil && a.Tier.DFA != nil }},
	{id: "SHRD", layout: layoutShardPlan,
		has: func(a *Artifact) bool { return a.Shards != nil }},
	{id: "TOPO", needs: "SHRD", why: "a placement assigns shards to domains", layout: layoutTopo,
		has: func(a *Artifact) bool { return a.Topo != nil }},
	{id: "SCOR", layout: layoutScore,
		has: func(a *Artifact) bool { return a.Score != nil }},
}

// rules applies a present row's needs and refuses columns.
func (s *section) rules(present func(id string) bool) error {
	switch {
	case s.needs != "" && !present(s.needs):
		return fmt.Errorf("%w: %s without %s (%s)", ErrCorrupt, s.id, s.needs, s.why)
	case s.refuses != "" && present(s.refuses):
		return fmt.Errorf("%w: %s beside %s (%s)", ErrCorrupt, s.id, s.refuses, s.why)
	}
	return nil
}

// admit applies the table's presence rules to the set of sections present.
func admit(present func(id string) bool) error {
	for i := range sectionTable {
		s := &sectionTable[i]
		if !present(s.id) {
			if s.has == nil {
				return fmt.Errorf("%w: missing section %q", ErrCorrupt, s.id)
			}
			continue
		}
		if err := s.rules(present); err != nil {
			return err
		}
	}
	return nil
}

// Meta is the artifact's design-point and shape header.
type Meta struct {
	// Bits and Stride are the compiled automaton's symbol geometry.
	Bits, Stride int
	// CAMode marks the Cache-Automaton 8-bit design point.
	CAMode bool
	// Seed is the placement-search seed the artifact was built with.
	Seed int64
	// OriginalStates/Transitions describe the pre-transformation automaton
	// (the compile input), so loaded machines can still report overheads.
	OriginalStates, OriginalTransitions int
	// States/Transitions/Groups describe the compiled shape — duplicated
	// from the AUTM/PLAC payloads so Stat never has to decode them.
	States, Transitions, Groups int
	// CreatedUnix is the build time in Unix seconds (0 when the builder
	// wants deterministic output, e.g. tests).
	CreatedUnix int64
	// Backend names the compile target the artifact was sealed for. The
	// empty string means the default Impala target: default-backend
	// artifacts carry no tag at all (the field is appended to the META
	// payload only when non-empty). Set it with Artifact.SetBackend, which
	// normalizes the default name away.
	Backend string
}

// BackendName returns the effective backend name ("" reads as the default).
func (m Meta) BackendName() string {
	if m.Backend == "" {
		return backend.DefaultName
	}
	return m.Backend
}

// Stage is one compile-pipeline stage recorded in the artifact. It mirrors
// core.StageStats field for field, so FromResult converts one to the other.
type Stage struct {
	Name        string
	States      int
	Transitions int
	Duration    time.Duration
	CPUTime     time.Duration
}

// Artifact is a fully decoded compiled machine: enough to rebuild both the
// bit-parallel functional engine (sim.Compile) and the capsule-level
// machine (arch.Build) without touching the compile pipeline.
type Artifact struct {
	Meta      Meta
	Stages    []Stage
	NFA       *automata.NFA
	Placement *place.Placement
	// Tier is the sealed hybrid execution plan (nil when the artifact was
	// built without the tier-selection stage).
	Tier *dfa.Sealed
	// Shards is the sealed shard partition (nil when the artifact was built
	// without the shard-plan stage).
	Shards *shard.Sealed
	// Topo is the sealed cluster placement (nil when the artifact was
	// built without a topology stage). Set it with SetTopo.
	Topo *topo.Sealed
	// Score is the sealed per-transition weight table and report threshold
	// of NFA (nil when the artifact was built without scoring).
	Score *automata.Weights
	// BackendPayload is the backend-owned "BKND" section (nil when the
	// backend seals nothing — the default Impala target always does). Set it
	// with SetBackend so the Meta tag stays consistent.
	BackendPayload []byte

	// size and sections describe the container Load decoded (total bytes,
	// payload bytes per fourcc), for Info; zero on an artifact assembled in
	// memory.
	size     int64
	sections map[string]int64
	// classes is NFA's class map, derived when the first DFAT decodes: every
	// sealed DFA, a shard's included, steps by it.
	classes *dfa.Classes
	// validated is the automaton Load decoded and validated (Validated).
	validated *automata.NFA
}

// Validated reports whether NFA is the automaton Load decoded and validated,
// so that a machine built from the artifact need not walk it again. An
// artifact assembled in memory, or one whose NFA was replaced, reports false.
func (a *Artifact) Validated() bool { return a.NFA != nil && a.NFA == a.validated }

// SetBackend stamps the artifact with its compile target and the backend's
// sealed section payload. The default backend name is normalized to the
// empty tag so default artifacts keep the legacy byte layout; a payload
// without a non-default name is rejected at Save time.
func (a *Artifact) SetBackend(name string, payload []byte) {
	if name == backend.DefaultName {
		name = ""
	}
	a.Meta.Backend = name
	a.BackendPayload = payload
}

// SetTopo attaches (or, with nil, detaches) a sealed cluster placement.
// The topology is normalized so the sealed form is fully explicit and the
// encoding deterministic.
func (a *Artifact) SetTopo(s *topo.Sealed) {
	if s == nil {
		a.Topo = nil
		return
	}
	a.Topo = &topo.Sealed{
		Topology:    s.Topology.Normalize(),
		ShardDomain: append([]int(nil), s.ShardDomain...),
	}
}

// Info is the cheap header view returned by Stat and Artifact.Info.
type Info struct {
	Version   int
	SizeBytes int64
	Meta      Meta
	Stages    []Stage
	// Sections maps fourcc → payload bytes, for size breakdowns.
	Sections map[string]int64
}

// Info returns the header view of a loaded artifact: what Stat reports for
// the bytes Load read, so a caller that wants both the machine and the
// header reads and checksums the file once. It describes those bytes, not
// later edits; SizeBytes and Sections are zero on an artifact assembled in
// memory.
func (a *Artifact) Info() *Info {
	return &Info{Version: Version, SizeBytes: a.size, Meta: a.Meta, Stages: a.Stages, Sections: a.sections}
}

// New assembles an artifact from compile outputs, filling the Meta shape
// counts from the automaton and placement. original may be nil when the
// pre-transformation shape is unknown (counts stay zero).
func New(n *automata.NFA, pl *place.Placement, original *automata.NFA, meta Meta, stages []Stage) *Artifact {
	meta.Bits = n.Bits
	meta.Stride = n.Stride
	meta.States = n.NumStates()
	meta.Transitions = n.NumTransitions()
	if pl != nil {
		meta.Groups = len(pl.G4s)
	}
	if original != nil {
		meta.OriginalStates = original.NumStates()
		meta.OriginalTransitions = original.NumTransitions()
	}
	return &Artifact{Meta: meta, Stages: stages, NFA: n, Placement: pl}
}

// FromResult assembles the artifact of a compile: New over the transformed
// automaton, its placement and the compile trace, carrying every plan the
// compile sealed and its weight table. It is the one hand-off from compiling
// to serving, whether the artifact is saved (impalac) or served at once
// (impala.CompileAutomaton).
func FromResult(res *core.Result, pl *place.Placement, original *automata.NFA, meta Meta) *Artifact {
	stages := make([]Stage, len(res.Stages))
	for i, st := range res.Stages {
		stages[i] = Stage(st)
	}
	a := New(res.NFA, pl, original, meta, stages)
	a.Tier, a.Shards, a.Score = res.Tier, res.Shards, res.Weights
	return a
}

// Save writes the artifact. The encoding is deterministic: saving the
// result of Load yields the identical byte stream.
func (a *Artifact) Save(w io.Writer) error {
	if a.NFA == nil || a.Placement == nil {
		return fmt.Errorf("%w: artifact missing automaton or placement", ErrCorrupt)
	}
	if err := a.NFA.Validate(); err != nil {
		return fmt.Errorf("artifact: refusing to save invalid automaton: %w", err)
	}
	if len(a.BackendPayload) > 0 && a.Meta.Backend == "" {
		return fmt.Errorf("%w: backend payload without a backend tag (use SetBackend)", ErrCorrupt)
	}
	if a.Score != nil {
		if err := a.Score.Validate(a.NFA); err != nil {
			return fmt.Errorf("artifact: refusing to save invalid weight table: %w", err)
		}
	}
	payloads, c := map[string][]byte{}, &codec{}
	for _, s := range sectionTable {
		if s.has == nil || s.has(a) {
			*c = codec{}
			s.layout(c, a)
			payloads[s.id] = c.b
		}
	}
	if err := admit(func(id string) bool { _, ok := payloads[id]; return ok }); err != nil {
		return err
	}
	var body bytes.Buffer
	for _, s := range sectionTable {
		if p, ok := payloads[s.id]; ok {
			writeSection(&body, s.id, p)
		}
	}

	pre := make([]byte, 16)
	copy(pre, magic[:])
	binary.LittleEndian.PutUint16(pre[6:], Version)
	binary.LittleEndian.PutUint32(pre[8:], 0) // flags
	binary.LittleEndian.PutUint32(pre[12:], crc32.Checksum(body.Bytes(), castagnoli))
	if _, err := w.Write(pre); err != nil {
		return err
	}
	_, err := w.Write(body.Bytes())
	return err
}

// WriteFile saves the artifact to path (0644, replaced atomically enough
// for tooling: written to a temp file first, then renamed).
func (a *Artifact) WriteFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := a.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// Load reads, CRC-validates and fully decodes an artifact. The returned
// automaton has been Validate()d, the placement covers every state, and the
// container rules hold (section presence, META shape, backend, TOPO against
// the SHRD shard count, SCOR against AUTM). The tier and shard plans are
// decoded, not checked against the automaton: their consistency is checked
// where they are unsealed (dfa.UnsealSelection, shard.UnsealShards), once per
// machine build, and only for the shards a machine hosts.
func Load(r io.Reader) (*Artifact, error) {
	a, err := read(r, false)
	if err != nil {
		return nil, err
	}
	if err := a.validate(); err != nil {
		return nil, err
	}
	a.validated = a.NFA // the AUTM layout validated it
	return a, nil
}

// LoadFile loads an artifact from path.
func LoadFile(path string) (*Artifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// Stat reads and CRC-validates the container but decodes only the table's
// stat rows, META and STAG — artifact header inspection without paying for
// the automaton decode.
func Stat(r io.Reader) (*Info, error) {
	a, err := read(r, true)
	if err != nil {
		return nil, err
	}
	return a.Info(), nil
}

// StatFile is Stat over a file path.
func StatFile(path string) (*Info, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Stat(f)
}

// read checks the container and decodes its sections as they come: every
// one, or with statOnly the table's stat rows. The sections must be rows of
// the table, in its order, each at most once, and present as its rules
// require; a row's needs come before it, so they are checked on arrival.
func read(r io.Reader, statOnly bool) (*Artifact, error) {
	body, err := readBody(r)
	if err != nil {
		return nil, err
	}
	a := &Artifact{size: int64(len(body)) + 16, sections: map[string]int64{}}
	present := func(id string) bool { _, ok := a.sections[id]; return ok }
	c := &codec{load: true}
	next := 0 // the first row the next section may be
	for off := 0; off < len(body); {
		if len(body)-off < 12 {
			return nil, fmt.Errorf("%w: section header at offset %d", ErrTruncated, off)
		}
		id := string(body[off : off+4])
		length := binary.LittleEndian.Uint64(body[off+4 : off+12])
		off += 12
		if length > uint64(len(body)-off) {
			return nil, fmt.Errorf("%w: section %q claims %d bytes, %d remain", ErrTruncated, id, length, len(body)-off)
		}
		i := slices.IndexFunc(sectionTable, func(s section) bool { return s.id == id })
		switch {
		case i < 0:
			return nil, fmt.Errorf("%w: unknown section %q", ErrCorrupt, id)
		case i < next:
			return nil, fmt.Errorf("%w: section %q repeated or out of order", ErrCorrupt, id)
		}
		s, payload := &sectionTable[i], body[off:off+int(length)]
		a.sections[id], next, off = int64(length), i+1, off+int(length)
		if err := s.rules(present); err != nil {
			return nil, err
		}
		if s.stat || !statOnly {
			*c = codec{load: true, b: payload}
			if s.layout(c, a); c.end() != nil {
				return nil, fmt.Errorf("section %s: %w", id, c.err)
			}
		}
	}
	if err := admit(present); err != nil {
		return nil, err
	}
	return a, nil
}

// validate cross-checks the decoded sections against each other and the
// Meta shape counts: what the table's presence rules cannot state. The plans
// are left to the functions that unseal them.
func (a *Artifact) validate() error {
	n, pl := a.NFA, a.Placement
	if a.Meta.Bits != n.Bits || a.Meta.Stride != n.Stride {
		return fmt.Errorf("%w: META geometry (%d,%d) != automaton (%d,%d)",
			ErrCorrupt, a.Meta.Bits, a.Meta.Stride, n.Bits, n.Stride)
	}
	if a.Meta.States != n.NumStates() || a.Meta.Transitions != n.NumTransitions() {
		return fmt.Errorf("%w: META shape %d states/%d transitions != automaton %d/%d",
			ErrCorrupt, a.Meta.States, a.Meta.Transitions, n.NumStates(), n.NumTransitions())
	}
	if a.Meta.Groups != len(pl.G4s) {
		return fmt.Errorf("%w: META groups %d != placement %d", ErrCorrupt, a.Meta.Groups, len(pl.G4s))
	}
	placed := 0
	seen := make([]bool, n.NumStates()) // a state sits in one slot of one group
	for gi, g := range pl.G4s {
		for slot, id := range g.Slots {
			if id < 0 {
				continue
			}
			if int(id) >= n.NumStates() {
				return fmt.Errorf("%w: group %d slot %d references state %d of %d",
					ErrCorrupt, gi, slot, id, n.NumStates())
			}
			if seen[id] {
				return fmt.Errorf("%w: group %d state %d placed twice", ErrCorrupt, gi, id)
			}
			seen[id] = true
			placed++
		}
	}
	if placed != n.NumStates() {
		return fmt.Errorf("%w: placement covers %d of %d states", ErrCorrupt, placed, n.NumStates())
	}
	if a.BackendPayload != nil && a.Meta.Backend == "" {
		return fmt.Errorf("%w: BKND section without a META backend tag", ErrCorrupt)
	}
	if a.Meta.Backend != "" {
		// A tagged artifact must name a registered backend, and the backend
		// revalidates its own sealed section (nil when it carried none).
		bk, err := backend.Get(a.Meta.Backend)
		if err != nil {
			return fmt.Errorf("artifact: META backend: %w", err)
		}
		if err := bk.ValidateGeometry(n.Bits, n.Stride); err != nil {
			return fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if err := bk.OpenSection(a.BackendPayload, n, pl); err != nil {
			return fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	if a.Topo != nil {
		// The placement must cover the plan's shards with in-range domains.
		if err := a.Topo.Validate(a.Shards.Plan.Shards); err != nil {
			return fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	if a.Score != nil {
		// A weight-count lie fails the shape check against AUTM's out-edges.
		if err := a.Score.Validate(n); err != nil {
			return fmt.Errorf("%w: SCOR: %v", ErrCorrupt, err)
		}
	}
	return nil
}

// ---- container plumbing ----

// readBody consumes the whole stream, validates the preamble and CRC, and
// returns the section body.
func readBody(r io.Reader) ([]byte, error) {
	pre := make([]byte, 16)
	if _, err := io.ReadFull(r, pre); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("%w: %d-byte preamble", ErrTruncated, 16)
		}
		return nil, err
	}
	if !bytes.Equal(pre[:6], magic[:]) {
		return nil, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint16(pre[6:]); v != Version {
		return nil, fmt.Errorf("%w: file version %d, this build reads %d", ErrVersion, v, Version)
	}
	if flags := binary.LittleEndian.Uint32(pre[8:]); flags != 0 {
		return nil, fmt.Errorf("%w: reserved preamble flags %#x", ErrCorrupt, flags)
	}
	want := binary.LittleEndian.Uint32(pre[12:])
	body, err := readRest(r)
	if err != nil {
		return nil, err
	}
	if got := crc32.Checksum(body, castagnoli); got != want {
		return nil, fmt.Errorf("%w: crc32c %08x, header says %08x", ErrChecksum, got, want)
	}
	return body, nil
}

// readRest reads r to its end. The preamble carries no length, so a reader
// that can say what remains — an in-memory reader (what the daemons and
// LoadMachine callers pass) or a regular file — is read into one allocation
// of that size; io.ReadAll's doubling buffer, which allocates about five
// times the body on the way, is left for the rest.
func readRest(r io.Reader) ([]byte, error) {
	remaining := -1
	switch src := r.(type) {
	case interface{ Len() int }:
		remaining = src.Len()
	case *os.File:
		if fi, err := src.Stat(); err == nil && fi.Mode().IsRegular() {
			if pos, err := src.Seek(0, io.SeekCurrent); err == nil && fi.Size() >= pos {
				remaining = int(fi.Size() - pos)
			}
		}
	}
	if remaining < 0 {
		return io.ReadAll(r)
	}
	body := make([]byte, remaining)
	n, err := io.ReadFull(r, body)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		// Shorter than announced: as with ReadAll, the checksum decides.
		return body[:n], nil
	}
	return body, err
}

func writeSection(w *bytes.Buffer, id string, payload []byte) {
	w.WriteString(id)
	var lenb [8]byte
	binary.LittleEndian.PutUint64(lenb[:], uint64(len(payload)))
	w.Write(lenb[:])
	w.Write(payload)
}

// codec walks a section's layout in one direction: on Save it appends each
// field to b, on Load it reads each field from b and refuses what does not
// bound-check. A layout function is written once, against a codec, and is
// both the section's encoder and its decoder.
type codec struct {
	load bool
	b    []byte
	off  int   // the next byte Load reads
	err  error // Load's first refusal
}

// next returns the next n bytes Load reads, or nil — refusing the walk as
// truncated when fewer remain.
func (c *codec) next(n int) []byte {
	if n > len(c.b)-c.off {
		if c.err == nil {
			c.err = ErrTruncated
		}
		return nil
	}
	c.off += n
	return c.b[c.off-n : c.off]
}

func (c *codec) ok() bool { return c.err == nil }

// fail refuses the section as corrupt, unless it is refused already.
func (c *codec) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

// end returns the walk's refusal; Load consumes exactly the encoding, so
// bytes left over are one.
func (c *codec) end() error {
	if c.err == nil && c.off != len(c.b) {
		c.fail("%d trailing bytes", len(c.b)-c.off)
	}
	return c.err
}

// The fixed-width fields, little-endian, one binary call each. u32 reads
// unsigned and i32 sign-extends: a field is read back into the type it was
// written from.
func u8[T ~uint8 | ~int](c *codec, v *T) {
	if !c.load {
		c.b = append(c.b, uint8(*v))
	} else if p := c.next(1); p != nil {
		*v = T(p[0])
	}
}

func u16[T ~uint16 | ~int](c *codec, v *T) {
	if !c.load {
		c.b = binary.LittleEndian.AppendUint16(c.b, uint16(*v))
	} else if p := c.next(2); p != nil {
		*v = T(binary.LittleEndian.Uint16(p))
	}
}

func u32[T ~uint32 | ~int32 | ~int](c *codec, v *T) {
	if !c.load {
		c.b = binary.LittleEndian.AppendUint32(c.b, uint32(*v))
	} else if p := c.next(4); p != nil {
		*v = T(binary.LittleEndian.Uint32(p))
	}
}

func i32(c *codec, v *int) {
	if !c.load {
		c.b = binary.LittleEndian.AppendUint32(c.b, uint32(int32(*v)))
	} else if p := c.next(4); p != nil {
		*v = int(int32(binary.LittleEndian.Uint32(p)))
	}
}

func u64[T ~uint64 | ~int64 | ~int](c *codec, v *T) {
	if !c.load {
		c.b = binary.LittleEndian.AppendUint64(c.b, uint64(*v))
	} else if p := c.next(8); p != nil {
		*v = T(binary.LittleEndian.Uint64(p))
	}
}

func (c *codec) f64(v *float64) {
	bits := math.Float64bits(*v)
	if u64(c, &bits); c.load {
		*v = math.Float64frombits(bits)
	}
}

// table walks a DFA phase table — whole rows of 1<<Bits ≥ 4 uint16
// successors — in bulk: Save grows the buffer once for it, Load reads it four
// entries (8 bytes) at a time and returns its largest entry, with which the
// layout range-checks every successor without a second pass.
func (c *codec) table(v []uint16) uint16 {
	if !c.load {
		at := len(c.b)
		c.b = slices.Grow(c.b, 2*len(v))[:at+2*len(v)]
		for i, x := range v {
			binary.LittleEndian.PutUint16(c.b[at+2*i:], x)
		}
		return 0
	}
	p := c.next(2 * len(v))
	if p == nil {
		return 0
	}
	// One running maximum per lane keeps the four compares independent.
	var m0, m1, m2, m3 uint16
	for len(v) >= 4 && len(p) >= 8 {
		w := binary.LittleEndian.Uint64(p)
		a, b, d, e := uint16(w), uint16(w>>16), uint16(w>>32), uint16(w>>48)
		v[0], v[1], v[2], v[3] = a, b, d, e
		m0, m1, m2, m3 = max(m0, a), max(m1, b), max(m2, d), max(m3, e)
		v, p = v[4:], p[8:]
	}
	return max(m0, m1, m2, m3)
}

// records walks n records of size bytes each in bulk — Save grows the buffer
// once for them, Load takes their bytes in one read — and hands each to walk,
// which states the record's fields at their offsets once for both
// directions (record). n must be bounded already (count, bound).
func (c *codec) records(n, size int, walk func(r *record, i int)) {
	r := &record{load: c.load}
	var b []byte
	if !c.load {
		at := len(c.b)
		c.b = slices.Grow(c.b, n*size)[:at+n*size]
		b = c.b[at:]
	} else if b = c.next(n * size); b == nil {
		return
	}
	for i := 0; i < n; i++ {
		r.b = b[i*size:][:size]
		walk(r, i)
	}
	if r.bad {
		c.fail("non-zero record padding")
	}
}

// record is one fixed-size record of a records walk: its field functions
// write a field into b on Save and read it from b on Load, at the field's
// offset, with no bounds to check beyond the record's own.
type record struct {
	load, bad bool
	b         []byte
}

func rec32[T ~uint32 | ~int32 | ~int](r *record, off int, v *T) {
	if r.load {
		*v = T(binary.LittleEndian.Uint32(r.b[off:]))
	} else {
		binary.LittleEndian.PutUint32(r.b[off:], uint32(*v))
	}
}

// reci32 is rec32 for an int written from an int32: Load sign-extends it.
func reci32(r *record, off int, v *int) {
	if r.load {
		*v = int(int32(binary.LittleEndian.Uint32(r.b[off:])))
	} else {
		binary.LittleEndian.PutUint32(r.b[off:], uint32(int32(*v)))
	}
}

func rec16[T ~uint16](r *record, off int, v *T) {
	if r.load {
		*v = T(binary.LittleEndian.Uint16(r.b[off:]))
	} else {
		binary.LittleEndian.PutUint16(r.b[off:], uint16(*v))
	}
}

func rec8[T ~uint8](r *record, off int, v *T) {
	if r.load {
		*v = T(r.b[off])
	} else {
		r.b[off] = uint8(*v)
	}
}

// pad is a reserved byte: zero on Save, and Load refuses the walk when it is
// not.
func (r *record) pad(off int) {
	if r.load {
		r.bad = r.bad || r.b[off] != 0
	} else {
		r.b[off] = 0
	}
}

// rect walks a match rect, each dimension a raw 256-bit mask, in bulk.
func (c *codec) rect(r automata.Rect) {
	if !c.load {
		for _, set := range r {
			for _, w := range set {
				c.b = binary.LittleEndian.AppendUint64(c.b, w)
			}
		}
	} else if p := c.next(32 * len(r)); p != nil {
		for di := range r {
			for w := range r[di] {
				r[di][w] = binary.LittleEndian.Uint64(p[32*di+8*w:])
			}
		}
	}
}

// flag walks a boolean byte and pad n reserved ones. The encoding is
// canonical, so Load refuses a flag other than 0 or 1 and a non-zero pad
// byte.
func (c *codec) flag(v *bool) {
	b := uint8(0)
	if *v {
		b = 1
	}
	if u8(c, &b); c.load {
		if b > 1 {
			c.fail("flag byte %d", b)
		}
		*v = b == 1
	}
}

func (c *codec) pad(n int) {
	if !c.load {
		c.b = append(c.b, make([]byte, n)...)
		return
	}
	for _, b := range c.next(n) {
		if b != 0 {
			c.fail("non-zero padding")
		}
	}
}

// str walks a u16 length and that many bytes; Save cuts a longer string.
func (c *codec) str(s *string) {
	n := min(len(*s), math.MaxUint16)
	if u16(c, &n); !c.load {
		c.b = append(c.b, (*s)[:n]...)
	} else if p := c.next(n); p != nil {
		*s = string(p)
	}
}

// bound refuses, on Load, n elements of at least size bytes each when the
// rest of the payload cannot hold them — a count that lies fails here,
// before it sizes anything — and returns n, or 0 once the walk has failed.
func (c *codec) bound(n, size int, what string) int {
	if c.load && c.err == nil && uint64(n)*uint64(size) > uint64(len(c.b)-c.off) {
		c.fail("%d %s overrun the section's %d bytes", n, what, len(c.b)-c.off)
	}
	if c.err != nil {
		return 0
	}
	return n
}

// count walks a u32 element count and bounds it.
func (c *codec) count(n, size int, what string) int {
	u32(c, &n)
	return c.bound(n, size, what)
}

// size makes *s, on Load, n zero elements to walk into — nil for none, and
// once the walk has failed. On Save *s is what the layout walks; Save
// writes nothing into the artifact it encodes.
func size[S ~[]E, E any](c *codec, s *S, n int) {
	if c.load && n > 0 && c.err == nil {
		*s = make(S, n)
	}
}

// nest walks a u64 length-prefixed layout: SHRD's per-shard TIER and DFAT.
func (c *codec) nest(layout func(*codec)) {
	if !c.load {
		at := len(c.b)
		c.b = append(c.b, make([]byte, 8)...)
		layout(c)
		binary.LittleEndian.PutUint64(c.b[at:], uint64(len(c.b)-at-8))
		return
	}
	var n uint64
	if u64(c, &n); c.ok() && n > uint64(len(c.b)-c.off) {
		c.err = ErrTruncated
	}
	if !c.ok() {
		return
	}
	in := &codec{load: true, b: c.next(int(n))}
	layout(in)
	c.err = in.end()
}

// ---- section layouts ----

func layoutMeta(c *codec, a *Artifact) {
	m := &a.Meta
	u8(c, &m.Bits)
	u8(c, &m.Stride)
	c.flag(&m.CAMode)
	c.pad(1)
	u64(c, &m.Seed)
	u32(c, &m.OriginalStates)
	u32(c, &m.OriginalTransitions)
	u32(c, &m.States)
	u32(c, &m.Transitions)
	u32(c, &m.Groups)
	u64(c, &m.CreatedUnix)
	// The backend tag is a trailing field, present only when a non-default
	// target sealed the artifact, so default-backend files keep the fixed
	// layout. The container CRC already passed, so a tail that does not
	// decode as a non-empty string is corruption, not truncation.
	tagged := m.Backend != ""
	if c.load {
		tagged = c.ok() && c.off < len(c.b)
	}
	if tagged {
		c.str(&m.Backend)
		if c.load && (!c.ok() || m.Backend == "") {
			c.err = nil
			c.fail("malformed backend tag")
		}
	}
}

// BKND layout: the backend's own sealed bytes, whole.
func layoutBackend(c *codec, a *Artifact) {
	if !c.load {
		c.b = append(c.b, a.BackendPayload...)
		return
	}
	if c.off == len(c.b) {
		c.fail("empty section")
	}
	a.BackendPayload = bytes.Clone(c.next(len(c.b) - c.off))
}

func layoutStages(c *codec, a *Artifact) {
	n := len(a.Stages)
	u32(c, &n)
	if c.load && n > 1<<16 {
		c.fail("%d stages", n)
	}
	for i := 0; i < n && c.ok(); i++ {
		if c.load {
			a.Stages = append(a.Stages, Stage{})
		}
		s := &a.Stages[i]
		c.str(&s.Name)
		u32(c, &s.States)
		u32(c, &s.Transitions)
		u64(c, &s.Duration)
		u64(c, &s.CPUTime)
	}
}

// AUTM layout: geometry, then per state its start kind, report metadata,
// match rects as raw 256-bit masks per dimension and out-edges.
func layoutNFA(c *codec, a *Artifact) {
	if c.load {
		a.NFA = &automata.NFA{}
	}
	n := a.NFA
	u8(c, &n.Bits)
	u8(c, &n.Stride)
	c.pad(2)
	if c.load && c.ok() && n.Bits != 2 && n.Bits != 4 && n.Bits != 8 {
		c.fail("automaton bits %d", n.Bits)
	}
	if c.load && c.ok() && (n.Stride < 1 || n.Stride > 64) {
		c.fail("automaton stride %d", n.Stride)
	}
	// A state costs at least its 16 fixed bytes, a match rect 32 a dimension.
	size(c, &n.States, c.count(len(n.States), 16, "states"))
	for i := 0; i < len(n.States) && c.ok(); i++ {
		s := &n.States[i]
		u8(c, &s.Start)
		if c.load && s.Start > automata.StartEven {
			c.fail("state %d start kind %d", i, s.Start)
		}
		c.flag(&s.Report)
		u8(c, &s.ReportOffset)
		c.pad(1)
		i32(c, &s.ReportCode)
		nr := len(s.Match)
		u16(c, &nr)
		c.pad(2)
		size(c, &s.Match, c.bound(nr, n.Stride*32, "match rects"))
		for ri := range s.Match {
			if c.load {
				s.Match[ri] = make(automata.Rect, n.Stride)
			}
			c.rect(s.Match[ri])
		}
		size(c, &s.Out, c.count(len(s.Out), 4, "out-edges"))
		for oi := range s.Out {
			u32(c, &s.Out[oi])
		}
	}
	if c.load && c.ok() {
		if err := n.Validate(); err != nil {
			c.fail("%v", err)
		}
	}
}

// PLAC layout: the group count and placement totals, then per group its
// shape and its occupied slots as (slot, state) pairs in ascending slot
// order. A group decodes into a dense slot table.
func layoutPlacement(c *codec, a *Artifact) {
	if c.load {
		a.Placement = &place.Placement{}
	}
	pl := a.Placement
	ng := len(pl.G4s)
	u32(c, &ng)
	u32(c, &pl.TotalUncovered)
	u32(c, &pl.GAInvocations)
	size(c, &pl.G4s, c.bound(ng, 20, "groups"))
	for gi := 0; gi < len(pl.G4s) && c.ok(); gi++ {
		if c.load {
			pl.G4s[gi] = &place.G4Placement{}
		}
		g := pl.G4s[gi]
		c.flag(&g.Hierarchical)
		c.pad(3)
		u32(c, &g.States)
		u32(c, &g.Edges)
		u32(c, &g.Uncovered)
		slots := interconnect.G4Size
		if g.Hierarchical {
			slots = interconnect.G16Size
		}
		occupied := 0
		if c.load {
			g.Slots = make([]automata.StateID, slots)
			for i := range g.Slots {
				g.Slots[i] = -1
			}
		} else {
			for _, id := range g.Slots {
				if id >= 0 {
					occupied++
				}
			}
		}
		occupied = c.count(occupied, 8, "occupied slots")
		last := -1 // occupied slots are sealed in ascending order
		for i := 0; i < occupied && c.ok(); i++ {
			slot, id := last+1, automata.StateID(0)
			if !c.load {
				for g.Slots[slot] < 0 {
					slot++
				}
				id = g.Slots[slot]
			}
			u32(c, &slot)
			u32(c, &id)
			switch {
			case !c.load || !c.ok():
			case slot >= slots:
				c.fail("group %d slot %d out of %d", gi, slot, slots)
			case id < 0:
				c.fail("group %d slot %d holds negative state", gi, slot)
			case slot <= last:
				c.fail("group %d slot %d repeats or precedes slot %d", gi, slot, last)
			default:
				g.Slots[slot] = id
			}
			last = slot
		}
	}
}

// TIER layout: per component its tier, eviction and sizes, then the union
// DFA's totals and the budgets the plan was made under.
func layoutTierPlan(c *codec, p *dfa.Plan) {
	size(c, &p.CCs, c.count(len(p.CCs), 12, "tier components"))
	for i := 0; i < len(p.CCs) && c.ok(); i++ {
		cc := &p.CCs[i]
		u8(c, &cc.Kind)
		if c.load && cc.Kind > dfa.TierDFA {
			c.fail("tier component %d has kind %d", i, cc.Kind)
		}
		c.flag(&cc.Evicted)
		c.pad(2)
		u32(c, &cc.States)
		u32(c, &cc.DFAStates)
	}
	u32(c, &p.DFAStates)
	u64(c, &p.DFATableBytes)
	u32(c, &p.NFAStates)
	u32(c, &p.DFANFAStates)
	u32(c, &p.CCBudget)
	u32(c, &p.UnionBudget)
}

// DFAT layout: geometry, step and start state; the state count of every
// table — one per Step sub-symbols of the cycle — and the report-entry count,
// with which the section's length is fixed, and checked before anything is
// allocated; then the tables (uint16 successors, an index within the next
// table's phase, each table's largest checked against that phase's count as
// it is read), one 16-byte record per cycle-boundary state, and the flat
// 12-byte report entries. The tables are the resident form byte for byte. The
// step is not the DFAT's to choose: it is the one the automaton's class map
// takes (dfa.ClassesOf over AUTM), which Load derives and holds the section
// to.
const (
	dfatCycleBytes = 16 // enabled, active, rep (4 each), nrep (2), parity, pad
	dfatEntryBytes = 12 // state, code, offset
)

func layoutDFATable(c *codec, a *Artifact, t **dfa.DFA) {
	r := &dfa.Raw{}
	if !c.load {
		r = (*t).Raw()
	}
	u8(c, &r.Bits)
	u8(c, &r.Stride)
	c.flag(&r.AnyEven)
	u8(c, &r.Step)
	u16(c, &r.Start)
	c.pad(2)
	if c.load && c.ok() {
		if a.classes == nil && a.NFA != nil {
			a.classes = dfa.ClassesOf(a.NFA)
		}
		switch r.Classes = a.classes; {
		case r.Classes == nil:
			c.fail("DFAT before AUTM")
		case r.Bits != a.NFA.Bits || r.Stride != a.NFA.Stride:
			c.fail("DFAT geometry %d/%d, the automaton's %d/%d", r.Bits, r.Stride, a.NFA.Bits, a.NFA.Stride)
		case r.Step != r.Classes.Step():
			c.fail("DFAT steps %d sub-symbols a lookup, the automaton's classes %d", r.Step, r.Classes.Step())
		}
	}
	if !c.ok() {
		return
	}
	counts, states := make([]int, r.Stride/r.Step), 0
	for q := range counts {
		if !c.load {
			counts[q] = len(r.Tab[q]) >> r.Bits
		}
		u32(c, &counts[q])
		if c.load && counts[q] > dfa.MaxPhaseStates {
			c.fail("DFAT table %d claims %d states", q, counts[q])
		}
		states += counts[q]
	}
	ne := len(r.Entries)
	u32(c, &ne)
	if !c.ok() {
		return
	}
	if c.load {
		if want := uint64(states)<<r.Bits*2 + uint64(counts[0])*dfatCycleBytes + uint64(ne)*dfatEntryBytes; want != uint64(len(c.b)-c.off) {
			c.fail("counts (%d states, %d entries) need %d bytes, section has %d left", states, ne, want, len(c.b)-c.off)
			return
		}
		all := make([]uint16, states<<r.Bits)
		r.Tab = make([][]uint16, len(counts))
		for q, n := range counts {
			r.Tab[q], all = all[:n<<r.Bits:n<<r.Bits], all[n<<r.Bits:]
		}
		r.Cycles = make([]dfa.CycleState, counts[0])
		r.Entries = make([]dfa.ReportEntry, ne)
	}
	for q, tab := range r.Tab {
		top := c.table(tab)
		// A full phase makes every uint16 a valid successor.
		if n := counts[(q+1)%len(counts)]; c.load && len(tab) > 0 && n < dfa.MaxPhaseStates && int(top) >= n {
			c.fail("DFAT table %d successor %d out of range [0,%d)", q, top, n)
		}
	}
	c.records(len(r.Cycles), dfatCycleBytes, func(rc *record, i int) {
		cs := &r.Cycles[i]
		rec32(rc, 0, &cs.Enabled)
		rec32(rc, 4, &cs.Active)
		rec32(rc, 8, &cs.Rep)
		rec16(rc, 12, &cs.NRep)
		rec8(rc, 14, &cs.Parity)
		rc.pad(15)
	})
	c.records(len(r.Entries), dfatEntryBytes, func(rc *record, i int) {
		en := &r.Entries[i]
		rec32(rc, 0, &en.State)
		reci32(rc, 4, &en.Code)
		rec32(rc, 8, &en.Offset)
	})
	if c.load && c.ok() {
		d, err := dfa.FromRaw(r)
		if err != nil {
			c.fail("%v", err)
		}
		*t = d
	}
}

// SHRD layout: the partition plan (shard count, per-component shard
// assignment and state count), then the per-shard tier seals as nested
// length-prefixed TIER and DFAT layouts. The tier list is either absent
// (untiered plan sealed with no entries) or exactly one presence-flagged
// entry per shard.
func layoutShardPlan(c *codec, a *Artifact) {
	if c.load {
		a.Shards = &shard.Sealed{}
	}
	s := a.Shards
	u32(c, &s.Plan.Shards)
	if c.load && c.ok() && (s.Plan.Shards < 1 || s.Plan.Shards > 1<<20) {
		c.fail("%d shards", s.Plan.Shards)
	}
	ncc := c.count(len(s.Plan.CCShard), 8, "shard components")
	size(c, &s.Plan.CCShard, ncc)
	size(c, &s.Plan.CCStates, ncc)
	for i := 0; i < ncc && c.ok(); i++ {
		u32(c, &s.Plan.CCShard[i])
		u32(c, &s.Plan.CCStates[i])
	}
	// An entry is at least its presence byte.
	size(c, &s.Tiers, c.count(len(s.Tiers), 1, "shard tier entries"))
	for k := 0; k < len(s.Tiers) && c.ok(); k++ {
		present := s.Tiers[k] != nil
		if c.flag(&present); !present {
			continue
		}
		if c.load {
			s.Tiers[k] = &dfa.Sealed{}
		}
		tier := s.Tiers[k]
		c.nest(func(c *codec) { layoutTierPlan(c, &tier.Plan) })
		table := tier.DFA != nil
		if c.flag(&table); table {
			c.nest(func(c *codec) { layoutDFATable(c, a, &tier.DFA) })
		}
		if !c.ok() {
			c.err = fmt.Errorf("shard %d: %w", k, c.err)
		}
	}
}

// TOPO layout: the normalized topology — domain count, then per domain
// name, state capacity and bandwidth (f64 bits), then the dense
// domains×domains cost matrix row-major — followed by the shard count and
// the per-shard domain assignment. The topology is sealed normalized
// (explicit bandwidths and cost matrix), so the encoding is deterministic.
func layoutTopo(c *codec, a *Artifact) {
	if c.load {
		a.Topo = &topo.Sealed{}
	}
	s, t := a.Topo, &a.Topo.Topology
	if !c.load {
		norm := t.Normalize()
		t = &norm
	}
	nd := len(t.Domains)
	u32(c, &nd)
	if c.load && c.ok() && (nd < 1 || nd > 1<<16) {
		c.fail("%d domains", nd)
	}
	for i := 0; i < nd && c.ok(); i++ {
		if c.load {
			t.Domains = append(t.Domains, topo.Domain{})
		}
		d := &t.Domains[i]
		c.str(&d.Name)
		u32(c, &d.StateCapacity)
		c.f64(&d.Bandwidth)
	}
	c.bound(nd*nd, 8, "cost entries")
	size(c, &t.Cost, nd)
	for i := range t.Cost {
		size(c, &t.Cost[i], nd)
		for j := range t.Cost[i] {
			c.f64(&t.Cost[i][j])
		}
	}
	size(c, &s.ShardDomain, c.count(len(s.ShardDomain), 4, "placed shards"))
	for i := 0; i < len(s.ShardDomain) && c.ok(); i++ {
		u32(c, &s.ShardDomain[i])
		if c.load && s.ShardDomain[i] >= nd {
			c.fail("shard %d placed on domain %d of %d", i, s.ShardDomain[i], nd)
		}
	}
	if !c.load || !c.ok() {
		return
	}
	for _, dom := range t.Domains {
		if dom.Bandwidth == 0 {
			// Sealed topologies are normalized: the default is written out.
			c.fail("domain %q has no explicit bandwidth", dom.Name)
		}
	}
	if err := t.Validate(); err != nil {
		c.fail("%v", err)
	}
}

// SCOR layout: u32 state count, then per state the start weight (f64 bits)
// and its u32 out-edge count followed by that many edge weights (f64 bits),
// then the report threshold (f64 bits). Load range-checks every value —
// NaN, infinities and magnitudes beyond the saturation limits cannot enter
// a loaded machine even with a valid CRC: NaN propagates through max-plus,
// an oversized weight breaks the saturation bound.
func layoutScore(c *codec, a *Artifact) {
	if c.load {
		a.Score = &automata.Weights{}
	}
	w := a.Score
	// A state costs at least its start weight and edge count.
	ns := c.count(len(w.Start), 12, "states")
	size(c, &w.Start, ns)
	size(c, &w.Edge, ns)
	for i := 0; i < ns && c.ok(); i++ {
		c.weight(&w.Start[i], "state %d start weight", i)
		// Zero-edge rows stay nil, Weights.Clone's shape.
		size(c, &w.Edge[i], c.count(len(w.Edge[i]), 8, "edge weights"))
		for j := range w.Edge[i] {
			c.weight(&w.Edge[i][j], "state %d edge weight", i)
		}
	}
	c.f64(&w.Threshold)
	if c.load && (math.IsNaN(w.Threshold) || math.Abs(w.Threshold) > automata.ScoreLimit) {
		c.fail("threshold %g", w.Threshold)
	}
}

// weight walks one f64 weight, refusing on Load what Weights.Validate
// would.
func (c *codec) weight(v *float64, what string, i int) {
	c.f64(v)
	if c.load && (math.IsNaN(*v) || math.IsInf(*v, 0) || math.Abs(*v) > automata.WeightLimit) {
		c.fail(what+" %g", i, *v)
	}
}
