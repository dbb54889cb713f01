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
// stride phase, one record per cycle-boundary state, one flat report-entry
// array), "SHRD" (the shard-plan stage: the component-to-shard partition and
// each shard's tier seal as nested TIER/DFAT blobs), "TOPO" (the cluster
// placement: the normalized topology and the shard-to-domain assignment) and
// "SCOR" (the per-transition weight table and report threshold). A row may
// name one section it needs and one it refuses; there are three such rules
// (DFAT needs TIER, TOPO needs SHRD, TIER refuses SHRD), and every other
// combination composes. Each plan describes itself: META copies none of
// them. The encoding is canonical: Save output is deterministic, and Load
// accepts only what Save writes — sections in the table's order, reserved
// and padding bytes zero, flags 0 or 1 — so whatever loads saves back
// byte-identically, which the property tests and FuzzLoad pin.
//
// Every Load validates the magic, version, CRC and all structural bounds
// before returning; Stat decodes only the rows the table marks for it (META
// and STAG), still CRC-checking the whole file, so header inspection of a
// multi-megabyte artifact does not decode the automaton.
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
	"impala/internal/bitvec"
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
// TIER/DFAT, SHRD, TOPO and SCOR in turn, 6 the phase-split DFAT layout, and
// 7 drops META's copies of the tier, shard and score plans and lets SCOR
// ride beside TIER and SHRD.
const Version = 7

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
	// required rows are in every artifact; Stat decodes the stat rows.
	required, stat bool
	// encode returns the payload, nil when the artifact has no such section;
	// decode fills the artifact from one.
	encode func(a *Artifact) []byte
	decode func(a *Artifact, payload []byte) error
	// needs names a section that must ride with this one and refuses one
	// that must not; why is the reason, for the error.
	needs, refuses, why string
}

// sectionTable is the container's one statement of its sections: Save
// writes them in this order, Load and Stat accept no other. Checks that
// compare the values of two sections are validate's.
var sectionTable = []section{
	{id: "META", required: true, stat: true, encode: (*Artifact).encodeMeta, decode: (*Artifact).decodeMeta},
	{id: "STAG", required: true, stat: true,
		encode: func(a *Artifact) []byte { return encodeStages(a.Stages) },
		decode: func(a *Artifact, p []byte) (err error) { a.Stages, err = decodeStages(p); return err }},
	{id: "AUTM", required: true,
		encode: func(a *Artifact) []byte { return encodeNFA(a.NFA) },
		decode: func(a *Artifact, p []byte) (err error) { a.NFA, err = decodeNFA(p); return err }},
	{id: "PLAC", required: true,
		encode: func(a *Artifact) []byte { return encodePlacement(a.Placement) },
		decode: func(a *Artifact, p []byte) (err error) { a.Placement, err = decodePlacement(p); return err }},
	{id: "BKND",
		encode: func(a *Artifact) []byte {
			if len(a.BackendPayload) == 0 {
				return nil
			}
			return a.BackendPayload
		},
		decode: func(a *Artifact, p []byte) error {
			if len(p) == 0 {
				return fmt.Errorf("%w: empty BKND section", ErrCorrupt)
			}
			a.BackendPayload = append([]byte(nil), p...)
			return nil
		}},
	{id: "TIER", refuses: "SHRD", why: "a sharded artifact tiers per shard",
		encode: func(a *Artifact) []byte {
			return opt(a.Tier, func(t *dfa.Sealed) []byte { return encodeTierPlan(&t.Plan) })
		},
		decode: func(a *Artifact, p []byte) error {
			plan, err := decodeTierPlan(p)
			if err == nil {
				a.Tier = &dfa.Sealed{Plan: *plan}
			}
			return err
		}},
	{id: "DFAT", needs: "TIER", why: "the tables are the tier plan's DFA",
		encode: func(a *Artifact) []byte {
			return opt(a.Tier, func(t *dfa.Sealed) []byte { return opt(t.DFA, encodeDFATable) })
		},
		decode: func(a *Artifact, p []byte) (err error) { a.Tier.DFA, err = decodeDFATable(p); return err }},
	{id: "SHRD",
		encode: func(a *Artifact) []byte { return opt(a.Shards, encodeShardPlan) },
		decode: func(a *Artifact, p []byte) (err error) { a.Shards, err = decodeShardPlan(p); return err }},
	{id: "TOPO", needs: "SHRD", why: "a placement assigns shards to domains",
		encode: func(a *Artifact) []byte { return opt(a.Topo, encodeTopo) },
		decode: func(a *Artifact, p []byte) (err error) { a.Topo, err = decodeTopo(p); return err }},
	{id: "SCOR",
		encode: func(a *Artifact) []byte { return opt(a.Score, encodeScore) },
		decode: func(a *Artifact, p []byte) (err error) { a.Score, err = decodeScore(p); return err }},
}

// opt is an optional section's encode: nil, for absent, when v is.
func opt[T any](v *T, encode func(*T) []byte) []byte {
	if v == nil {
		return nil
	}
	return encode(v)
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
			if s.required {
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
}

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
	payloads := map[string][]byte{}
	for _, s := range sectionTable {
		if p := s.encode(a); p != nil {
			payloads[s.id] = p
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
			if err := s.decode(a, payload); err != nil {
				return nil, err
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

// enc is a little-endian append-only encoder.
type enc struct{ b []byte }

func (e *enc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *enc) u16(v uint16) { e.b = binary.LittleEndian.AppendUint16(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) i64(v int64)  { e.u64(uint64(v)) }
func (e *enc) str(s string) {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	e.u16(uint16(len(s)))
	e.b = append(e.b, s...)
}

// dec is the bounds-checked mirror of enc: the first overrun poisons the
// decoder and the caller surfaces one ErrTruncated.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.b)-d.off < n {
		d.err = ErrTruncated
		return nil
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p
}
func (d *dec) u8() uint8 {
	p := d.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}
func (d *dec) u16() uint16 {
	p := d.take(2)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(p)
}
func (d *dec) u32() uint32 {
	p := d.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}
func (d *dec) u64() uint64 {
	p := d.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}
func (d *dec) i64() int64 { return int64(d.u64()) }

// flag reads a boolean byte; pad skips n reserved bytes. The encoding is
// canonical, so a flag other than 0 or 1 and a non-zero pad byte are
// corruption.
func (d *dec) flag() bool {
	v := d.u8()
	if v > 1 && d.err == nil {
		d.err = fmt.Errorf("%w: flag byte %d", ErrCorrupt, v)
	}
	return v == 1
}
func (d *dec) pad(n int) {
	for _, b := range d.take(n) {
		if b != 0 {
			d.err = fmt.Errorf("%w: non-zero padding", ErrCorrupt)
		}
	}
}
func (d *dec) str() string {
	n := int(d.u16())
	p := d.take(n)
	if p == nil {
		return ""
	}
	return string(p)
}

// done returns the decoder's error, flagging trailing garbage as corrupt.
func (d *dec) done(section string) error {
	if d.err != nil {
		return fmt.Errorf("%w: section %q", d.err, section)
	}
	if d.off != len(d.b) {
		return fmt.Errorf("%w: section %q has %d trailing bytes", ErrCorrupt, section, len(d.b)-d.off)
	}
	return nil
}

// ---- section codecs ----

func (a *Artifact) encodeMeta() []byte {
	var e enc
	m := a.Meta
	e.u8(uint8(m.Bits))
	e.u8(uint8(m.Stride))
	if m.CAMode {
		e.u8(1)
	} else {
		e.u8(0)
	}
	e.u8(0) // pad
	e.i64(m.Seed)
	e.u32(uint32(m.OriginalStates))
	e.u32(uint32(m.OriginalTransitions))
	e.u32(uint32(m.States))
	e.u32(uint32(m.Transitions))
	e.u32(uint32(m.Groups))
	e.i64(m.CreatedUnix)
	// The backend tag is appended only when a non-default target sealed the
	// artifact, so default-backend files keep the fixed META layout
	// byte-for-byte.
	if m.Backend != "" {
		e.str(m.Backend)
	}
	return e.b
}

func (a *Artifact) decodeMeta(payload []byte) error {
	d := &dec{b: payload}
	m := Meta{
		Bits:   int(d.u8()),
		Stride: int(d.u8()),
		CAMode: d.flag(),
	}
	d.pad(1)
	m.Seed = d.i64()
	m.OriginalStates = int(d.u32())
	m.OriginalTransitions = int(d.u32())
	m.States = int(d.u32())
	m.Transitions = int(d.u32())
	m.Groups = int(d.u32())
	m.CreatedUnix = d.i64()
	// Default-backend artifacts end here (Backend ""); a trailing string is
	// the non-default backend tag. The container CRC already passed, so a
	// tail that does not decode as a non-empty string is corruption, not
	// truncation.
	if d.err == nil && d.off < len(d.b) {
		m.Backend = d.str()
		if d.err != nil || m.Backend == "" {
			return fmt.Errorf("%w: META carries a malformed backend tag", ErrCorrupt)
		}
	}
	if err := d.done("META"); err != nil {
		return err
	}
	a.Meta = m
	return nil
}

func encodeStages(stages []Stage) []byte {
	var e enc
	e.u32(uint32(len(stages)))
	for _, s := range stages {
		e.str(s.Name)
		e.u32(uint32(s.States))
		e.u32(uint32(s.Transitions))
		e.i64(int64(s.Duration))
		e.i64(int64(s.CPUTime))
	}
	return e.b
}

func decodeStages(payload []byte) ([]Stage, error) {
	d := &dec{b: payload}
	n := int(d.u32())
	if n < 0 || n > 1<<16 {
		return nil, fmt.Errorf("%w: %d stages", ErrCorrupt, n)
	}
	var out []Stage
	for i := 0; i < n && d.err == nil; i++ {
		out = append(out, Stage{
			Name:        d.str(),
			States:      int(d.u32()),
			Transitions: int(d.u32()),
			Duration:    time.Duration(d.i64()),
			CPUTime:     time.Duration(d.i64()),
		})
	}
	if err := d.done("STAG"); err != nil {
		return nil, err
	}
	return out, nil
}

func encodeNFA(n *automata.NFA) []byte {
	var e enc
	e.u8(uint8(n.Bits))
	e.u8(uint8(n.Stride))
	e.u16(0) // pad
	e.u32(uint32(len(n.States)))
	for i := range n.States {
		s := &n.States[i]
		e.u8(uint8(s.Start))
		if s.Report {
			e.u8(1)
		} else {
			e.u8(0)
		}
		e.u8(uint8(s.ReportOffset))
		e.u8(0) // pad
		e.u32(uint32(int32(s.ReportCode)))
		e.u16(uint16(len(s.Match)))
		e.u16(0) // pad
		for _, r := range s.Match {
			for _, set := range r {
				for _, w := range set {
					e.u64(w)
				}
			}
		}
		e.u32(uint32(len(s.Out)))
		for _, t := range s.Out {
			e.u32(uint32(int32(t)))
		}
	}
	return e.b
}

func decodeNFA(payload []byte) (*automata.NFA, error) {
	d := &dec{b: payload}
	bits := int(d.u8())
	stride := int(d.u8())
	d.pad(2)
	if d.err == nil && (bits != 2 && bits != 4 && bits != 8) {
		return nil, fmt.Errorf("%w: automaton bits %d", ErrCorrupt, bits)
	}
	if d.err == nil && (stride < 1 || stride > 64) {
		return nil, fmt.Errorf("%w: automaton stride %d", ErrCorrupt, stride)
	}
	ns := int(d.u32())
	if d.err == nil && uint64(ns)*16 > uint64(len(payload)-d.off) {
		// Each state costs at least its 16 fixed bytes; a larger count is a
		// lie, not a big file.
		return nil, fmt.Errorf("%w: %d states in %d-byte section", ErrCorrupt, ns, len(payload))
	}
	n := &automata.NFA{Bits: bits, Stride: stride}
	n.States = make([]automata.State, 0, ns)
	for i := 0; i < ns && d.err == nil; i++ {
		var s automata.State
		s.Start = automata.StartKind(d.u8())
		if d.err == nil && s.Start > automata.StartEven {
			return nil, fmt.Errorf("%w: state %d start kind %d", ErrCorrupt, i, s.Start)
		}
		s.Report = d.flag()
		s.ReportOffset = int(d.u8())
		d.pad(1)
		s.ReportCode = int(int32(d.u32()))
		nr := int(d.u16())
		if d.err == nil && uint64(nr)*uint64(stride)*32 > uint64(len(payload)-d.off) {
			return nil, fmt.Errorf("%w: state %d claims %d match rects", ErrCorrupt, i, nr)
		}
		d.pad(2)
		s.Match = make(automata.MatchSet, 0, nr)
		for ri := 0; ri < nr && d.err == nil; ri++ {
			r := make(automata.Rect, stride)
			for di := 0; di < stride; di++ {
				var set bitvec.ByteSet
				for w := range set {
					set[w] = d.u64()
				}
				r[di] = set
			}
			s.Match = append(s.Match, r)
		}
		nOut := int(d.u32())
		if d.err == nil && uint64(nOut)*4 > uint64(len(payload)-d.off) {
			return nil, fmt.Errorf("%w: state %d claims %d out-edges", ErrCorrupt, i, nOut)
		}
		if nOut > 0 {
			s.Out = make([]automata.StateID, 0, nOut)
			for oi := 0; oi < nOut && d.err == nil; oi++ {
				s.Out = append(s.Out, automata.StateID(int32(d.u32())))
			}
		}
		n.States = append(n.States, s)
	}
	if err := d.done("AUTM"); err != nil {
		return nil, err
	}
	if err := n.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return n, nil
}

func encodeTierPlan(p *dfa.Plan) []byte {
	var e enc
	e.u32(uint32(len(p.CCs)))
	for _, cc := range p.CCs {
		e.u8(uint8(cc.Kind))
		if cc.Evicted {
			e.u8(1)
		} else {
			e.u8(0)
		}
		e.u16(0) // pad
		e.u32(uint32(cc.States))
		e.u32(uint32(cc.DFAStates))
	}
	e.u32(uint32(p.DFAStates))
	e.u64(uint64(p.DFATableBytes))
	e.u32(uint32(p.NFAStates))
	e.u32(uint32(p.DFANFAStates))
	e.u32(uint32(p.CCBudget))
	e.u32(uint32(p.UnionBudget))
	return e.b
}

func decodeTierPlan(payload []byte) (*dfa.Plan, error) {
	d := &dec{b: payload}
	ncc := int(d.u32())
	if d.err == nil && uint64(ncc)*12 > uint64(len(payload)-d.off) {
		return nil, fmt.Errorf("%w: %d tier components in %d-byte section", ErrCorrupt, ncc, len(payload))
	}
	p := &dfa.Plan{}
	for i := 0; i < ncc && d.err == nil; i++ {
		cc := dfa.CCPlan{Kind: dfa.TierKind(d.u8())}
		if d.err == nil && cc.Kind > dfa.TierDFA {
			return nil, fmt.Errorf("%w: tier component %d has kind %d", ErrCorrupt, i, cc.Kind)
		}
		cc.Evicted = d.flag()
		d.pad(2)
		cc.States = int(d.u32())
		cc.DFAStates = int(d.u32())
		p.CCs = append(p.CCs, cc)
	}
	p.DFAStates = int(d.u32())
	p.DFATableBytes = int(d.u64())
	p.NFAStates = int(d.u32())
	p.DFANFAStates = int(d.u32())
	p.CCBudget = int(d.u32())
	p.UnionBudget = int(d.u32())
	if err := d.done("TIER"); err != nil {
		return nil, err
	}
	return p, nil
}

// DFAT layout: geometry and start state; the state count of every stride
// phase and the report-entry count — with which the section's length is
// fixed, and checked before anything is allocated —; then the phase tables
// (uint16 successors, an index within the next phase), one 16-byte record
// per cycle-boundary state, and the flat report entries. The tables are the
// resident form byte for byte.
const (
	dfatCycleBytes = 16 // enabled, active, rep (4 each), nrep (2), parity, pad
	dfatEntryBytes = 12 // state, code, offset
)

func encodeDFATable(d *dfa.DFA) []byte {
	r := d.Raw()
	var e enc
	e.u8(uint8(r.Bits))
	e.u8(uint8(r.Stride))
	if r.AnyEven {
		e.u8(1)
	} else {
		e.u8(0)
	}
	e.u8(0) // pad
	e.u16(r.Start)
	e.u16(0) // pad
	for _, t := range r.Tab {
		e.u32(uint32(len(t) >> r.Bits))
	}
	e.u32(uint32(len(r.Entries)))
	e.b = slices.Grow(e.b, 2*r.NumStates()<<r.Bits+dfatCycleBytes*len(r.Cycles)+dfatEntryBytes*len(r.Entries))
	for _, t := range r.Tab {
		for _, v := range t {
			e.u16(v)
		}
	}
	for _, c := range r.Cycles {
		e.u32(uint32(c.Enabled))
		e.u32(uint32(c.Active))
		e.u32(c.Rep)
		e.u16(c.NRep)
		e.u8(c.Parity)
		e.u8(0) // pad
	}
	for _, en := range r.Entries {
		e.u32(uint32(int32(en.State)))
		e.u32(uint32(int32(en.Code)))
		e.u32(uint32(en.Offset))
	}
	return e.b
}

func decodeDFATable(payload []byte) (*dfa.DFA, error) {
	d := &dec{b: payload}
	r := &dfa.Raw{
		Bits:   int(d.u8()),
		Stride: int(d.u8()),
	}
	r.AnyEven = d.flag()
	d.pad(1)
	r.Start = d.u16()
	d.pad(2)
	if d.err == nil && (r.Bits != 2 && r.Bits != 4 && r.Bits != 8) {
		return nil, fmt.Errorf("%w: DFAT bits %d", ErrCorrupt, r.Bits)
	}
	if d.err == nil && (r.Stride < 1 || r.Stride > 64) {
		return nil, fmt.Errorf("%w: DFAT stride %d", ErrCorrupt, r.Stride)
	}
	counts := make([]int, r.Stride)
	states := uint64(0)
	for p := range counts {
		counts[p] = int(d.u32())
		if d.err == nil && counts[p] > dfa.MaxPhaseStates {
			return nil, fmt.Errorf("%w: DFAT phase %d claims %d states", ErrCorrupt, p, counts[p])
		}
		states += uint64(counts[p])
	}
	ne := int(d.u32())
	if d.err != nil {
		return nil, d.done("DFAT")
	}
	if want := states<<r.Bits*2 + uint64(counts[0])*dfatCycleBytes + uint64(ne)*dfatEntryBytes; want != uint64(len(payload)-d.off) {
		return nil, fmt.Errorf("%w: DFAT counts (%d states, %d entries) need %d bytes, section has %d left",
			ErrCorrupt, states, ne, want, len(payload)-d.off)
	}
	all := make([]uint16, states<<r.Bits)
	for i, b := 0, d.take(2*len(all)); i < len(all); i++ {
		all[i] = binary.LittleEndian.Uint16(b[2*i:])
	}
	r.Tab = make([][]uint16, r.Stride)
	for p, c := range counts {
		r.Tab[p], all = all[:c<<r.Bits:c<<r.Bits], all[c<<r.Bits:]
	}
	r.Cycles = make([]dfa.CycleState, counts[0])
	for i := range r.Cycles {
		r.Cycles[i] = dfa.CycleState{
			Enabled: int32(d.u32()), Active: int32(d.u32()),
			Rep: d.u32(), NRep: d.u16(), Parity: d.u8(),
		}
		d.pad(1)
	}
	r.Entries = make([]dfa.ReportEntry, ne)
	for i := range r.Entries {
		r.Entries[i] = dfa.ReportEntry{
			State:  automata.StateID(int32(d.u32())),
			Code:   int(int32(d.u32())),
			Offset: int(d.u32()),
		}
	}
	if err := d.done("DFAT"); err != nil {
		return nil, err
	}
	t, err := dfa.FromRaw(r)
	if err != nil {
		return nil, fmt.Errorf("%w: DFAT: %v", ErrCorrupt, err)
	}
	return t, nil
}

// SHRD layout: the partition plan (shard count, per-component shard
// assignment and state count), then the per-shard tier seals as nested
// length-prefixed blobs reusing the TIER/DFAT codecs. The tier list is
// either absent (untiered plan sealed with no entries) or exactly one
// presence-flagged entry per shard.
func encodeShardPlan(s *shard.Sealed) []byte {
	var e enc
	e.u32(uint32(s.Plan.Shards))
	e.u32(uint32(len(s.Plan.CCShard)))
	for i, sh := range s.Plan.CCShard {
		e.u32(uint32(sh))
		e.u32(uint32(s.Plan.CCStates[i]))
	}
	e.u32(uint32(len(s.Tiers)))
	for _, tier := range s.Tiers {
		if tier == nil {
			e.u8(0)
			continue
		}
		e.u8(1)
		plan := encodeTierPlan(&tier.Plan)
		e.u64(uint64(len(plan)))
		e.b = append(e.b, plan...)
		if tier.DFA == nil {
			e.u8(0)
			continue
		}
		e.u8(1)
		table := encodeDFATable(tier.DFA)
		e.u64(uint64(len(table)))
		e.b = append(e.b, table...)
	}
	return e.b
}

// blob takes a length-prefixed nested payload off the decoder.
func (d *dec) blob() []byte {
	n := d.u64()
	if d.err == nil && n > uint64(len(d.b)-d.off) {
		d.err = ErrTruncated
		return nil
	}
	return d.take(int(n))
}

func decodeShardPlan(payload []byte) (*shard.Sealed, error) {
	d := &dec{b: payload}
	s := &shard.Sealed{}
	s.Plan.Shards = int(d.u32())
	if d.err == nil && (s.Plan.Shards < 1 || s.Plan.Shards > 1<<20) {
		return nil, fmt.Errorf("%w: SHRD claims %d shards", ErrCorrupt, s.Plan.Shards)
	}
	ncc := int(d.u32())
	if d.err == nil && uint64(ncc)*8 > uint64(len(payload)-d.off) {
		return nil, fmt.Errorf("%w: %d shard components in %d-byte section", ErrCorrupt, ncc, len(payload))
	}
	for i := 0; i < ncc && d.err == nil; i++ {
		s.Plan.CCShard = append(s.Plan.CCShard, int(d.u32()))
		s.Plan.CCStates = append(s.Plan.CCStates, int(d.u32()))
	}
	ntiers := int(d.u32())
	if d.err == nil && ntiers > len(payload)-d.off { // an entry is at least its presence byte
		return nil, fmt.Errorf("%w: %d shard tier entries in %d-byte section", ErrCorrupt, ntiers, len(payload))
	}
	s.Tiers = slices.Grow(s.Tiers, ntiers)
	for k := 0; k < ntiers && d.err == nil; k++ {
		if !d.flag() {
			s.Tiers = append(s.Tiers, nil)
			continue
		}
		plan, err := decodeTierPlan(d.blob())
		if d.err != nil {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", k, err)
		}
		var table *dfa.DFA
		if d.flag() {
			table, err = decodeDFATable(d.blob())
			if d.err != nil {
				break
			}
			if err != nil {
				return nil, fmt.Errorf("shard %d: %w", k, err)
			}
		}
		s.Tiers = append(s.Tiers, &dfa.Sealed{Plan: *plan, DFA: table})
	}
	if err := d.done("SHRD"); err != nil {
		return nil, err
	}
	return s, nil
}

// TOPO layout: the normalized topology — domain count, then per domain
// name, state capacity and bandwidth (f64 bits), then the dense
// domains×domains cost matrix row-major — followed by the shard count and
// the per-shard domain assignment. The topology is sealed normalized
// (explicit bandwidths and cost matrix), so the encoding is deterministic.
func encodeTopo(s *topo.Sealed) []byte {
	t := s.Topology.Normalize()
	var e enc
	e.u32(uint32(len(t.Domains)))
	for _, d := range t.Domains {
		e.str(d.Name)
		e.u32(uint32(d.StateCapacity))
		e.u64(math.Float64bits(d.Bandwidth))
	}
	for _, row := range t.Cost {
		for _, c := range row {
			e.u64(math.Float64bits(c))
		}
	}
	e.u32(uint32(len(s.ShardDomain)))
	for _, d := range s.ShardDomain {
		e.u32(uint32(d))
	}
	return e.b
}

func decodeTopo(payload []byte) (*topo.Sealed, error) {
	d := &dec{b: payload}
	nd := int(d.u32())
	if d.err == nil && (nd < 1 || nd > 1<<16) {
		return nil, fmt.Errorf("%w: TOPO claims %d domains", ErrCorrupt, nd)
	}
	s := &topo.Sealed{}
	for i := 0; i < nd && d.err == nil; i++ {
		s.Topology.Domains = append(s.Topology.Domains, topo.Domain{
			Name:          d.str(),
			StateCapacity: int(d.u32()),
			Bandwidth:     math.Float64frombits(d.u64()),
		})
	}
	if d.err == nil && uint64(nd)*uint64(nd)*8 > uint64(len(payload)-d.off) {
		return nil, fmt.Errorf("%w: TOPO cost matrix overruns section", ErrCorrupt)
	}
	for i := 0; i < nd && d.err == nil; i++ {
		row := make([]float64, 0, nd)
		for j := 0; j < nd && d.err == nil; j++ {
			row = append(row, math.Float64frombits(d.u64()))
		}
		s.Topology.Cost = append(s.Topology.Cost, row)
	}
	ns := int(d.u32())
	if d.err == nil && uint64(ns)*4 > uint64(len(payload)-d.off) {
		return nil, fmt.Errorf("%w: %d placed shards in %d-byte section", ErrCorrupt, ns, len(payload))
	}
	for i := 0; i < ns && d.err == nil; i++ {
		dom := int(d.u32())
		if d.err != nil {
			break
		}
		if dom < 0 || dom >= nd {
			return nil, fmt.Errorf("%w: TOPO shard %d placed on domain %d of %d", ErrCorrupt, i, dom, nd)
		}
		s.ShardDomain = append(s.ShardDomain, dom)
	}
	if err := d.done("TOPO"); err != nil {
		return nil, err
	}
	for _, dom := range s.Topology.Domains {
		if dom.Bandwidth == 0 {
			// Sealed topologies are normalized: the default is written out.
			return nil, fmt.Errorf("%w: TOPO domain %q has no explicit bandwidth", ErrCorrupt, dom.Name)
		}
	}
	if err := s.Topology.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return s, nil
}

// SCOR layout: u32 state count, then per state the start weight (f64 bits)
// and its u32 out-edge count followed by that many edge weights (f64 bits),
// then the report threshold (f64 bits). Weight values are range-checked on
// decode — NaN, infinities and magnitudes beyond the saturation limits
// cannot enter a loaded machine even with a valid CRC.
func encodeScore(w *automata.Weights) []byte {
	var e enc
	e.u32(uint32(len(w.Start)))
	for i, sw := range w.Start {
		e.u64(math.Float64bits(sw))
		e.u32(uint32(len(w.Edge[i])))
		for _, ew := range w.Edge[i] {
			e.u64(math.Float64bits(ew))
		}
	}
	e.u64(math.Float64bits(w.Threshold))
	return e.b
}

// badWeight reports values automata.Weights.Validate would reject, so a
// corrupted SCOR payload fails decode rather than poisoning score
// arithmetic (NaN propagates through max-plus; an oversized weight breaks
// the saturation bound).
func badWeight(v float64) bool {
	return math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > automata.WeightLimit
}

func decodeScore(payload []byte) (*automata.Weights, error) {
	d := &dec{b: payload}
	ns := int(d.u32())
	// Each state costs at least 12 bytes (start weight + edge count).
	if d.err == nil && uint64(ns)*12 > uint64(len(payload)-d.off) {
		return nil, fmt.Errorf("%w: SCOR claims %d states in %d-byte section", ErrCorrupt, ns, len(payload))
	}
	w := &automata.Weights{
		Start: make([]float64, 0, ns),
		Edge:  make([][]float64, 0, ns),
	}
	for i := 0; i < ns && d.err == nil; i++ {
		sw := math.Float64frombits(d.u64())
		if d.err == nil && badWeight(sw) {
			return nil, fmt.Errorf("%w: SCOR state %d start weight %g", ErrCorrupt, i, sw)
		}
		ne := int(d.u32())
		if d.err == nil && uint64(ne)*8 > uint64(len(payload)-d.off) {
			return nil, fmt.Errorf("%w: SCOR state %d claims %d edge weights", ErrCorrupt, i, ne)
		}
		// Zero-edge rows stay nil, matching Weights.Clone's shape so round
		// tripping is DeepEqual-exact.
		var row []float64
		if ne > 0 {
			row = make([]float64, 0, ne)
		}
		for j := 0; j < ne && d.err == nil; j++ {
			ew := math.Float64frombits(d.u64())
			if d.err == nil && badWeight(ew) {
				return nil, fmt.Errorf("%w: SCOR state %d edge %d weight %g", ErrCorrupt, i, j, ew)
			}
			row = append(row, ew)
		}
		w.Start = append(w.Start, sw)
		w.Edge = append(w.Edge, row)
	}
	w.Threshold = math.Float64frombits(d.u64())
	if d.err == nil && (math.IsNaN(w.Threshold) || math.Abs(w.Threshold) > automata.ScoreLimit) {
		return nil, fmt.Errorf("%w: SCOR threshold %g", ErrCorrupt, w.Threshold)
	}
	if err := d.done("SCOR"); err != nil {
		return nil, err
	}
	return w, nil
}

func encodePlacement(pl *place.Placement) []byte {
	var e enc
	e.u32(uint32(len(pl.G4s)))
	e.u32(uint32(pl.TotalUncovered))
	e.u32(uint32(pl.GAInvocations))
	for _, g := range pl.G4s {
		if g.Hierarchical {
			e.u8(1)
		} else {
			e.u8(0)
		}
		e.u8(0)
		e.u16(0) // pad
		e.u32(uint32(g.States))
		e.u32(uint32(g.Edges))
		e.u32(uint32(g.Uncovered))
		occupied := 0
		for _, id := range g.Slots {
			if id >= 0 {
				occupied++
			}
		}
		e.u32(uint32(occupied))
		for slot, id := range g.Slots {
			if id >= 0 {
				e.u32(uint32(slot))
				e.u32(uint32(int32(id)))
			}
		}
	}
	return e.b
}

func decodePlacement(payload []byte) (*place.Placement, error) {
	d := &dec{b: payload}
	ng := int(d.u32())
	pl := &place.Placement{
		TotalUncovered: int(d.u32()),
		GAInvocations:  int(d.u32()),
	}
	if d.err == nil && uint64(ng)*20 > uint64(len(payload)-d.off) {
		// Each group costs at least its 20 fixed bytes (and decodes into a
		// dense slot table), so a larger count is a lie, not a big file.
		return nil, fmt.Errorf("%w: %d groups in %d-byte section", ErrCorrupt, ng, len(payload))
	}
	for gi := 0; gi < ng && d.err == nil; gi++ {
		g := &place.G4Placement{
			Hierarchical: d.flag(),
		}
		d.pad(3)
		g.States = int(d.u32())
		g.Edges = int(d.u32())
		g.Uncovered = int(d.u32())
		slots := interconnect.G4Size
		if g.Hierarchical {
			slots = interconnect.G16Size
		}
		g.Slots = make([]automata.StateID, slots)
		for i := range g.Slots {
			g.Slots[i] = -1
		}
		occupied := int(d.u32())
		if d.err == nil && uint64(occupied)*8 > uint64(len(payload)-d.off) {
			return nil, fmt.Errorf("%w: group %d claims %d occupied slots", ErrCorrupt, gi, occupied)
		}
		last := -1 // occupied slots are sealed in ascending order
		for i := 0; i < occupied && d.err == nil; i++ {
			slot := int(d.u32())
			id := automata.StateID(int32(d.u32()))
			if d.err != nil {
				break
			}
			if slot >= slots {
				return nil, fmt.Errorf("%w: group %d slot %d out of %d", ErrCorrupt, gi, slot, slots)
			}
			if id < 0 {
				return nil, fmt.Errorf("%w: group %d slot %d holds negative state", ErrCorrupt, gi, slot)
			}
			if slot <= last {
				return nil, fmt.Errorf("%w: group %d slot %d repeats or precedes slot %d", ErrCorrupt, gi, slot, last)
			}
			last = slot
			g.Slots[slot] = id
		}
		pl.G4s = append(pl.G4s, g)
	}
	if err := d.done("PLAC"); err != nil {
		return nil, err
	}
	return pl, nil
}
