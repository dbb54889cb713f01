// Package backend abstracts the compile pipeline's tail behind a pluggable
// target interface. The V-TeSS front of the pipeline (squash, stride,
// minimize) is target-agnostic: it produces a homogeneous vector-symbol
// automaton at a (bits, stride-dims) geometry. Everything after that point
// is target-specific — which geometries are legal, whether Espresso capsule
// refinement must run, how states map onto match arrays, what the hardware
// costs (capacity, throughput, area, energy), and what extra payload the
// sealed artifact carries.
//
// Two targets are registered:
//
//   - "impala" (the default): the paper's 4-bit capsule design plus its
//     baked-in Cache-Automaton 8-bit comparison geometry. Placement is the
//     G4 genetic search of internal/place; the model is the Table 3/5
//     subarray parameterization of internal/arch. It seals no extra artifact
//     payload, so default-backend artifacts are byte-identical with the
//     pre-backend format.
//
//   - "cam": a CAMA-style content-addressable-memory target (PAPERS.md:
//     "CAMA: Energy and Memory Efficient Automata Processing in
//     Content-Addressable Memories"; Kong et al.'s software-hardware
//     codesign follow-up). States are dense TCAM rows — one row per match
//     rect — searched associatively, so there is no capsule-legality
//     constraint and the refinement stage is skipped entirely. Capacity is
//     counted in rows, not states, and the energy/area tables model ternary
//     match-line arrays instead of 6T column reads.
//
// The registry is the single authority for geometry validation: core.Config
// Validate, impalac and the facade all resolve their backend here and call
// ValidateGeometry, so every layer reports identical errors.
package backend

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"impala/internal/automata"
	"impala/internal/place"
)

// Sentinel errors. All are wrapped with context; test with errors.Is.
var (
	// ErrUnknown marks a backend name not present in the registry.
	ErrUnknown = errors.New("backend: unknown backend")
	// ErrDuplicate marks a Register call colliding with a taken name.
	ErrDuplicate = errors.New("backend: duplicate backend name")
	// ErrMismatch marks an artifact whose sealed backend differs from the
	// one the loader expects (e.g. a CAM artifact fed to the Impala facade).
	ErrMismatch = errors.New("backend: artifact targets a different backend")
)

// DefaultName is the backend assumed when no name is given — the Impala
// capsule target the repository reproduces.
const DefaultName = "impala"

// Model is a backend's capacity/energy/area evaluation of one compiled
// automaton — the arch-style analytical numbers every target must produce
// so impala-bench can tabulate them side by side. All fields are pure
// functions of the automaton shape and the backend's parameter tables
// (deterministic, so the plan table holds them exactly).
type Model struct {
	// Design labels the design point like the paper's figures
	// ("Impala (16-bit)", "CAM (16-bit)").
	Design string
	// BitsPerCycle is the input bits consumed per search/cycle.
	BitsPerCycle int
	// Rows is the match-array resource the automaton occupies: states for
	// Impala's per-state capsule columns, TCAM rows (one per match rect)
	// for CAM — the unit UnitCapacity is denominated in.
	Rows int
	// UnitCapacity is rows per replication unit; Units is how many units
	// this automaton needs.
	UnitCapacity, Units int
	// FreqGHz and ThroughputGbps are the derated operating point.
	FreqGHz, ThroughputGbps float64
	// MatchMM2/RouteMM2/TotalMM2 decompose the area of the required units.
	MatchMM2, RouteMM2, TotalMM2 float64
	// ThroughputPerMM2 is the Figure 11 density metric.
	ThroughputPerMM2 float64
	// PJPerByte is the analytic match-array energy per input byte under the
	// paper's no-power-gating assumption (every occupied array is read or
	// searched every cycle). Switch/wire energy is activity-dependent and
	// excluded, so the figure is deterministic.
	PJPerByte float64
}

// Backend is one compile target behind the pipeline tail.
type Backend interface {
	// Name is the registry key and the artifact META tag.
	Name() string
	// Version is the backend's model/codec revision, sealed into the
	// backend-owned artifact section.
	Version() int
	// Description is the one-line summary shown by impalac -backend list.
	Description() string
	// DefaultGeometry returns the target's native (bits, strideDims) design
	// point, used when the caller does not pick one explicitly.
	DefaultGeometry() (bits, strideDims int)
	// ValidateGeometry reports whether the target supports compiling to the
	// (bits, strideDims) point. Its error text is the single source of
	// truth: core.Config.Validate, impalac and the facade all surface it
	// verbatim.
	ValidateGeometry(bits, strideDims int) error
	// NeedsRefine reports whether the Espresso capsule-refinement stage
	// applies. CAM rows hold arbitrary ternary patterns, so the CAM target
	// skips refinement entirely.
	NeedsRefine() bool
	// Place maps the transformed automaton onto the target's match arrays.
	Place(n *automata.NFA, opts place.Options) (*place.Placement, error)
	// Model evaluates the capacity/energy/area tables for the compiled
	// automaton.
	Model(n *automata.NFA) Model
	// SealSection encodes the backend-owned artifact section payload (nil
	// means "no section" — the default backend seals nothing so its
	// artifacts stay byte-identical with the legacy format).
	SealSection(n *automata.NFA, pl *place.Placement) ([]byte, error)
	// OpenSection validates a loaded backend section payload against the
	// decoded automaton and placement. It receives nil when the artifact
	// carried no section.
	OpenSection(payload []byte, n *automata.NFA, pl *place.Placement) error
}

var (
	regMu    sync.RWMutex
	registry = map[string]Backend{}
)

// Register adds a backend to the registry, failing on a taken name.
func Register(b Backend) error {
	regMu.Lock()
	defer regMu.Unlock()
	name := b.Name()
	if name == "" {
		return fmt.Errorf("%w: empty name", ErrUnknown)
	}
	if _, taken := registry[name]; taken {
		return fmt.Errorf("%w: %q", ErrDuplicate, name)
	}
	registry[name] = b
	return nil
}

// MustRegister is Register for init-time wiring; it panics on collision.
func MustRegister(b Backend) {
	if err := Register(b); err != nil {
		panic(err)
	}
}

// Get resolves a backend by name; the empty string selects DefaultName.
func Get(name string) (Backend, error) {
	if name == "" {
		name = DefaultName
	}
	regMu.RLock()
	defer regMu.RUnlock()
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q (registered: %v)", ErrUnknown, name, namesLocked())
	}
	return b, nil
}

// Names returns the registered backend names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return namesLocked()
}

func namesLocked() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func init() {
	MustRegister(impalaBackend{})
	MustRegister(camBackend{})
}
