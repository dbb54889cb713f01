package backend

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"impala/internal/automata"
	"impala/internal/interconnect"
	"impala/internal/place"
)

// camBackend models a CAMA-style content-addressable-memory automata target
// (PAPERS.md: "CAMA: Energy and Memory Efficient Automata Processing in
// Content-Addressable Memories", and Kong et al.'s software-hardware
// codesign follow-up). The state-matching structure is inverted relative to
// Impala: instead of reading one 16-cell column per state per dimension,
// the automaton is stored as dense ternary rows in TCAM banks — one row per
// match rect, each row holding the rect's per-dimension symbol pattern as
// 2-bit ternary cells — and the input chunk is broadcast as a search key,
// with all rows compared associatively in one access. Consequences the
// model captures:
//
//   - Capacity is denominated in rows, not states: a state whose match set
//     needs k rects occupies k rows, so Model.Rows ≥ states and the
//     capacity comparison against Impala is genuinely different.
//   - There is no capsule-legality constraint (a ternary row encodes any
//     rect directly), so the Espresso refinement stage is skipped — the
//     compiled automaton keeps its pre-refinement shape.
//   - Next-state routing is a per-bank SRAM indexed by match-line hits with
//     a global enable broadcast, not a G4 switch fabric: any transition is
//     routable, so placement is plain row packing and never fails.
//   - The search access (match-line precharge + compare + priority encode)
//     is slower than Impala's 16-row column read, and every occupied bank
//     burns search energy every cycle — the energy/throughput trade the
//     backendcmp tables surface.
type camBackend struct{}

// CAM bank parameter table at the paper's 14nm/0.8V node, mirroring the
// shape of arch's Table 3. A bank is 256 ternary rows; each row holds up to
// 16 symbol bits (the 8-bit × stride-2 design point) of 2-bit ternary
// cells plus its next-state field. Delay covers search-line drive,
// match-line evaluation and priority encoding; energy is one full-bank
// associative search (all match lines precharged every access — TCAM's
// fundamental cost); area reflects the ~2× cell size of ternary storage
// versus 6T SRAM.
const (
	camBankRows       = 256    // ternary rows per bank
	camSearchDelayPs  = 530.0  // full associative search access
	camSearchEnergyPJ = 0.9    // one bank search (all rows precharged)
	camMatchAreaUM2   = 5600.0 // ternary cell array per bank
	camRouteAreaUM2   = 2600.0 // next-state SRAM + enable broadcast per bank
	camUnitBanks      = 128    // replication unit: 128 banks = 32K rows
)

// CamName is the registry name of the CAM backend.
const CamName = "cam"

func (camBackend) Name() string { return CamName }

// Version seals the parameter-table/codec revision into artifacts.
func (camBackend) Version() int { return 1 }

func (camBackend) Description() string {
	return "CAMA-style TCAM match arrays: dense ternary rows, associative search, no capsule refinement"
}

func (camBackend) DefaultGeometry() (int, int) { return 8, 2 }

// ValidateGeometry: CAM rows store whole 8-bit symbols as ternary
// patterns; the bank's 16-symbol-bit row width supports one or two symbols
// per search.
func (camBackend) ValidateGeometry(bits, strideDims int) error {
	if bits != 8 {
		return fmt.Errorf("backend %s: TCAM rows store 8-bit symbols, got %d-bit target", CamName, bits)
	}
	switch strideDims {
	case 1, 2:
		return nil
	default:
		return fmt.Errorf("backend %s: 8-bit TCAM rows support stride dims 1/2, got %d", CamName, strideDims)
	}
}

// NeedsRefine: ternary rows encode arbitrary rects, so capsule refinement
// never applies.
func (camBackend) NeedsRefine() bool { return false }

// rowsOf returns the TCAM rows a state occupies: one per match rect (a
// stateless fallback of one row for rect-free states keeps the count
// well-defined on degenerate automata).
func rowsOf(s *automata.State) int {
	if len(s.Match) == 0 {
		return 1
	}
	return len(s.Match)
}

// totalRows sums the row occupancy of the whole automaton.
func totalRows(n *automata.NFA) int {
	rows := 0
	for i := range n.States {
		rows += rowsOf(&n.States[i])
	}
	return rows
}

// Place packs states into 256-row banks. Any transition is routable (the
// next-state broadcast is bank-global), so packing only has to respect the
// per-bank row budget; connected components are kept together when they
// fit (first-fit decreasing, deterministic) and split across fresh banks
// when they do not. Each bank is encoded as one placement group with
// sequential slot labels, which the artifact's PLAC codec round-trips
// unchanged.
func (camBackend) Place(n *automata.NFA, opts place.Options) (*place.Placement, error) {
	type bankState struct {
		free   int
		states []automata.StateID
	}
	ccs := n.ConnectedComponents()
	ccRows := make([]int, len(ccs))
	order := make([]int, len(ccs))
	for i, cc := range ccs {
		order[i] = i
		for _, id := range cc {
			ccRows[i] += rowsOf(&n.States[id])
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return ccRows[order[a]] > ccRows[order[b]] })

	var banks []*bankState
	for _, ci := range order {
		cc := ccs[ci]
		if ccRows[ci] <= camBankRows {
			placed := false
			for _, b := range banks {
				if b.free >= ccRows[ci] {
					b.states = append(b.states, cc...)
					b.free -= ccRows[ci]
					placed = true
					break
				}
			}
			if !placed {
				banks = append(banks, &bankState{free: camBankRows - ccRows[ci], states: append([]automata.StateID(nil), cc...)})
			}
			continue
		}
		// Oversized component: stream states into fresh banks.
		cur := &bankState{free: camBankRows}
		banks = append(banks, cur)
		for _, id := range cc {
			need := rowsOf(&n.States[id])
			if need > camBankRows {
				return nil, fmt.Errorf("backend %s: state %d needs %d rows, bank holds %d", CamName, id, need, camBankRows)
			}
			if cur.free < need {
				cur = &bankState{free: camBankRows}
				banks = append(banks, cur)
			}
			cur.states = append(cur.states, id)
			cur.free -= need
		}
	}

	out := &place.Placement{}
	inBank := make([]int, n.NumStates())
	for bi, b := range banks {
		for _, id := range b.states {
			inBank[id] = bi
		}
	}
	for bi, b := range banks {
		g := &place.G4Placement{
			Slots:  make([]automata.StateID, interconnect.G4Size),
			States: len(b.states),
		}
		for i := range g.Slots {
			g.Slots[i] = -1
		}
		for slot, id := range b.states {
			g.Slots[slot] = id
		}
		for _, id := range b.states {
			for _, t := range n.States[id].Out {
				if inBank[t] == bi {
					g.Edges++
				}
			}
		}
		out.G4s = append(out.G4s, g)
	}
	return out, nil
}

// Model evaluates the CAM capacity/energy/area tables.
func (b camBackend) Model(n *automata.NFA) Model {
	rows := totalRows(n)
	banks := (rows + camBankRows - 1) / camBankRows
	bitsPerCycle := n.BitsPerCycle()
	freq := 0.9 * 1000.0 / camSearchDelayPs // same 10% derate as arch.FreqDerate
	throughput := freq * float64(bitsPerCycle)
	unitCapacity := camUnitBanks * camBankRows
	units := (rows + unitCapacity - 1) / unitCapacity
	if rows == 0 {
		units = 0
	}
	unitMM2 := float64(camUnitBanks) * (camMatchAreaUM2 + camRouteAreaUM2) / 1e6
	perArea := 0.0
	if units > 0 {
		perArea = throughput / (float64(units) * unitMM2)
	}
	bytesPerCycle := float64(bitsPerCycle) / 8.0
	return Model{
		Design:           fmt.Sprintf("CAM (%d-bit)", bitsPerCycle),
		BitsPerCycle:     bitsPerCycle,
		Rows:             rows,
		UnitCapacity:     unitCapacity,
		Units:            units,
		FreqGHz:          freq,
		ThroughputGbps:   throughput,
		MatchMM2:         float64(banks) * camMatchAreaUM2 / 1e6,
		RouteMM2:         float64(banks) * camRouteAreaUM2 / 1e6,
		TotalMM2:         float64(banks) * (camMatchAreaUM2 + camRouteAreaUM2) / 1e6,
		ThroughputPerMM2: perArea,
		PJPerByte:        float64(banks) * camSearchEnergyPJ / bytesPerCycle,
	}
}

// camSectionVersion is the backend-owned artifact payload layout revision.
const camSectionVersion = 1

// SealSection encodes the CAM summary the loader cross-checks: the row
// occupancy and bank count the automaton and placement imply, plus the
// parameter-table revision they were sealed under.
func (c camBackend) SealSection(n *automata.NFA, pl *place.Placement) ([]byte, error) {
	if pl == nil {
		return nil, fmt.Errorf("backend %s: sealing requires a placement", CamName)
	}
	rows := totalRows(n)
	if rows > math.MaxUint32 || len(pl.G4s) > math.MaxUint32 {
		return nil, fmt.Errorf("backend %s: automaton too large to seal (%d rows)", CamName, rows)
	}
	buf := make([]byte, 16)
	binary.LittleEndian.PutUint16(buf[0:], camSectionVersion)
	binary.LittleEndian.PutUint16(buf[2:], camBankRows)
	binary.LittleEndian.PutUint32(buf[4:], uint32(rows))
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(pl.G4s)))
	binary.LittleEndian.PutUint32(buf[12:], uint32(n.NumStates()))
	return buf, nil
}

// OpenSection validates the sealed summary against the decoded automaton
// and placement: a disagreement means the artifact was tampered with or the
// backend's row model changed under it.
func (c camBackend) OpenSection(payload []byte, n *automata.NFA, pl *place.Placement) error {
	if len(payload) != 16 {
		return fmt.Errorf("backend %s: backend section is %d bytes, want 16", CamName, len(payload))
	}
	if v := binary.LittleEndian.Uint16(payload[0:]); v != camSectionVersion {
		return fmt.Errorf("backend %s: sealed section version %d, this build reads %d", CamName, v, camSectionVersion)
	}
	if br := binary.LittleEndian.Uint16(payload[2:]); br != camBankRows {
		return fmt.Errorf("backend %s: sealed bank geometry %d rows, this build models %d", CamName, br, camBankRows)
	}
	rows := int(binary.LittleEndian.Uint32(payload[4:]))
	banks := int(binary.LittleEndian.Uint32(payload[8:]))
	states := int(binary.LittleEndian.Uint32(payload[12:]))
	if got := totalRows(n); got != rows {
		return fmt.Errorf("backend %s: sealed %d rows, automaton implies %d", CamName, rows, got)
	}
	if pl == nil || len(pl.G4s) != banks {
		return fmt.Errorf("backend %s: sealed %d banks, placement has %d groups", CamName, banks, len(pl.G4s))
	}
	if states != n.NumStates() {
		return fmt.Errorf("backend %s: sealed %d states, automaton has %d", CamName, states, n.NumStates())
	}
	return nil
}
