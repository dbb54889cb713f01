// Package interconnect models Impala's hierarchical memory-mapped switch
// fabric (Section 5.2): 256×256 full-crossbar local switches built from 8T
// SRAM subarrays with wired-OR bit-lines, 64-wide port nodes (PNs), and the
// 256×256 global switch that joins four local switches into a "group of
// four" (G4) supporting connected components of up to 1024 states.
package interconnect

import "fmt"

// Geometry constants of the paper's design.
const (
	// LocalSwitchSize is the side of one local full-crossbar switch: 256
	// states per local switch.
	LocalSwitchSize = 256
	// PortNodes is the number of states per local switch with global
	// connectivity (the first 64 indices of each local switch).
	PortNodes = 64
	// LocalsPerG4 is the number of local switches joined by one global
	// switch.
	LocalsPerG4 = 4
	// G4Size is the state capacity of one G4: 4 × 256 = 1024.
	G4Size = LocalSwitchSize * LocalsPerG4
	// GlobalSwitchSize is the side of the global switch subarray:
	// 4 × 64 = 256 port nodes.
	GlobalSwitchSize = PortNodes * LocalsPerG4
	// G4ConfigBytes is one G4's switch-image payload: four local crossbars
	// and the global switch, one bit per crosspoint.
	G4ConfigBytes = (LocalsPerG4*LocalSwitchSize*LocalSwitchSize + GlobalSwitchSize*GlobalSwitchSize) / 8
)

// Covered reports whether a transition from G4-local index src to G4-local
// index dst (both in [0, G4Size)) is routable by the G4 fabric:
//
//   - by a local switch, when src and dst sit in the same 256-state block, or
//   - by the global switch, when both src and dst are port nodes (the first
//     64 indices of their respective blocks).
//
// This is the coverage predicate visualized in Figure 10(a): gray diagonal
// blocks (locals) plus the purple port-node stripes (global).
func Covered(src, dst int) bool {
	if src < 0 || src >= G4Size || dst < 0 || dst >= G4Size {
		return false
	}
	if src/LocalSwitchSize == dst/LocalSwitchSize {
		return true
	}
	return src%LocalSwitchSize < PortNodes && dst%LocalSwitchSize < PortNodes
}

// CheckG4 returns the error G4.Connect returns for src -> dst, or nil when
// the G4 fabric covers the pair.
func CheckG4(src, dst int) error {
	if Covered(src, dst) {
		return nil
	}
	return fmt.Errorf("interconnect: pair (%d,%d) not covered by G4 fabric", src, dst)
}

// CoveredBy describes which resource routes a covered pair.
type Route uint8

const (
	RouteNone Route = iota
	RouteLocal
	RouteGlobal
)

// RouteOf returns which switch routes src -> dst (RouteNone if uncovered).
func RouteOf(src, dst int) Route {
	if src < 0 || src >= G4Size || dst < 0 || dst >= G4Size {
		return RouteNone
	}
	if src/LocalSwitchSize == dst/LocalSwitchSize {
		return RouteLocal
	}
	if src%LocalSwitchSize < PortNodes && dst%LocalSwitchSize < PortNodes {
		return RouteGlobal
	}
	return RouteNone
}

// CoverageFraction returns the fraction of all G4Size² pairs that the G4
// fabric can route — the theoretical switch coverage of Figure 10.
func CoverageFraction() float64 {
	local := float64(LocalsPerG4) * LocalSwitchSize * LocalSwitchSize
	// Global-only pairs: port-node pairs across different locals.
	global := float64(LocalsPerG4) * (LocalsPerG4 - 1) * PortNodes * PortNodes
	return (local + global) / float64(G4Size*G4Size)
}
