package interconnect

import (
	"math/bits"

	"impala/internal/bitvec"
)

// G4 is the configured switch state of one group-of-four: four 256×256
// local crossbar images plus one 256×256 global switch image. It is both
// the bitstream payload for the interconnect subarrays and an executable
// model (Propagate implements the wired-OR enable computation).
type G4 struct {
	// Locals[b] is the crossbar of block b: row = source local index,
	// column = destination local index.
	Locals [LocalsPerG4]*bitvec.Matrix
	// Global routes port nodes: row = source PN (block*64 + idx), column =
	// destination PN.
	Global *bitvec.Matrix
}

// NewG4 returns an empty G4 switch group.
func NewG4() *G4 {
	g := &G4{Global: bitvec.NewMatrix(GlobalSwitchSize, GlobalSwitchSize)}
	for b := range g.Locals {
		g.Locals[b] = bitvec.NewMatrix(LocalSwitchSize, LocalSwitchSize)
	}
	return g
}

// pnIndex returns the global-switch index of a G4-local state index, or -1
// if the state is not a port node.
func pnIndex(idx int) int {
	block, off := idx/LocalSwitchSize, idx%LocalSwitchSize
	if off >= PortNodes {
		return -1
	}
	return block*PortNodes + off
}

// Connect configures the routing for a transition src -> dst (both G4-local
// indices). It returns an error if the pair is not covered by the fabric.
func (g *G4) Connect(src, dst int) error {
	switch RouteOf(src, dst) {
	case RouteLocal:
		b := src / LocalSwitchSize
		g.Locals[b].Set(src%LocalSwitchSize, dst%LocalSwitchSize)
		return nil
	case RouteGlobal:
		g.Global.Set(pnIndex(src), pnIndex(dst))
		return nil
	default:
		return CheckG4(src, dst)
	}
}

// Connected reports whether src -> dst is configured.
func (g *G4) Connected(src, dst int) bool {
	switch RouteOf(src, dst) {
	case RouteLocal:
		b := src / LocalSwitchSize
		return g.Locals[b].Get(src%LocalSwitchSize, dst%LocalSwitchSize)
	case RouteGlobal:
		return g.Global.Get(pnIndex(src), pnIndex(dst))
	default:
		return false
	}
}

// Propagate computes the enable vector for the next cycle from the active
// vector of this cycle, exactly as the hardware does: every active state
// drives its local-switch row (wired-OR onto the block's bit-lines), and
// every active port node additionally drives its global-switch row, whose
// outputs are OR-combined into the port-node columns of all blocks. active
// and enable are G4Size-bit vectors; enable is overwritten.
func (g *G4) Propagate(active, enable bitvec.Words) {
	for i := range enable {
		enable[i] = 0
	}
	// Local rows.
	active.ForEach(func(idx int) {
		b := idx / LocalSwitchSize
		row := g.Locals[b].Row(idx % LocalSwitchSize)
		base := b * LocalSwitchSize / 64
		for w, word := range row {
			enable[base+w] |= word
		}
		// Global rows for port nodes.
		if pn := pnIndex(idx); pn >= 0 {
			grow := g.Global.Row(pn)
			// Scatter global outputs: column pn' maps to state
			// (pn'/64)*256 + pn'%64.
			for w, word := range grow {
				for word != 0 {
					bit := bits.TrailingZeros64(word)
					word &= word - 1
					dstPN := w*64 + bit
					dstState := (dstPN/PortNodes)*LocalSwitchSize + dstPN%PortNodes
					enable.Set(dstState)
				}
			}
		}
	})
}

// UtilizationStats summarizes configured switch points.
type UtilizationStats struct {
	LocalPoints  int
	GlobalPoints int
	LocalUtil    float64 // fraction of local crossbar cells configured
	GlobalUtil   float64
}

// Utilization returns switch-point statistics (the Figure 8/9 metric).
func (g *G4) Utilization() UtilizationStats {
	var st UtilizationStats
	cells := 0
	for _, l := range g.Locals {
		st.LocalPoints += l.PopCount()
		cells += LocalSwitchSize * LocalSwitchSize
	}
	st.LocalUtil = float64(st.LocalPoints) / float64(cells)
	st.GlobalPoints = g.Global.PopCount()
	st.GlobalUtil = g.Global.Utilization()
	return st
}
