package interconnect

import (
	"fmt"
	"math/bits"

	"impala/internal/bitvec"
)

// The paper notes (§5.2.1): "To support even larger automata, a
// higher-level switch can be used to connect G4 switches." This file
// implements that extension: a G16 groups four G4s (4096 states) with one
// additional 256×256 hyper switch. Each G4 exposes 64 "super port nodes" —
// the first 16 slots of each of its four local switches — giving
// 4 G4 × 64 = 256 hyper-switch ports, mirroring how the G4's global switch
// aggregates 4 × 64 local port nodes.

const (
	// SuperPortNodes is the number of hyper-connected slots per local
	// switch (the first 16 indices, a subset of the 64 port nodes).
	SuperPortNodes = 16
	// G4sPerG16 is the number of G4 units joined by one hyper switch.
	G4sPerG16 = 4
	// G16Size is the state capacity of one G16: 4 × 1024.
	G16Size = G4Size * G4sPerG16
	// HyperSwitchSize is the hyper switch side: 4 G4 × 4 blocks × 16 = 256.
	HyperSwitchSize = G4sPerG16 * LocalsPerG4 * SuperPortNodes
	// G16ConfigBytes is one G16's switch-image payload: its four G4s' and
	// the hyper switch's.
	G16ConfigBytes = G4sPerG16*G4ConfigBytes + HyperSwitchSize*HyperSwitchSize/8
)

// CoveredG16 reports whether a transition between two G16-local indices
// (in [0, G16Size)) is routable: within one G4 by its own fabric, across
// G4s only between super port nodes.
func CoveredG16(src, dst int) bool {
	if src < 0 || src >= G16Size || dst < 0 || dst >= G16Size {
		return false
	}
	if src/G4Size == dst/G4Size {
		return Covered(src%G4Size, dst%G4Size)
	}
	return src%LocalSwitchSize < SuperPortNodes && dst%LocalSwitchSize < SuperPortNodes
}

// CheckG16 returns the error G16.Connect returns for src -> dst, or nil when
// the G16 fabric covers the pair.
func CheckG16(src, dst int) error {
	if src < 0 || src >= G16Size || dst < 0 || dst >= G16Size {
		return fmt.Errorf("interconnect: G16 index out of range (%d,%d)", src, dst)
	}
	if src/G4Size == dst/G4Size {
		return CheckG4(src%G4Size, dst%G4Size)
	}
	if !CoveredG16(src, dst) {
		return fmt.Errorf("interconnect: pair (%d,%d) not covered by G16 fabric", src, dst)
	}
	return nil
}

// hyperIndex maps a G16-local slot to its hyper-switch port, or -1.
func hyperIndex(idx int) int {
	if idx%LocalSwitchSize >= SuperPortNodes {
		return -1
	}
	g4 := idx / G4Size
	block := (idx % G4Size) / LocalSwitchSize
	off := idx % LocalSwitchSize
	return g4*LocalsPerG4*SuperPortNodes + block*SuperPortNodes + off
}

// hyperSlot is the inverse of hyperIndex.
func hyperSlot(port int) int {
	g4 := port / (LocalsPerG4 * SuperPortNodes)
	block := (port / SuperPortNodes) % LocalsPerG4
	off := port % SuperPortNodes
	return g4*G4Size + block*LocalSwitchSize + off
}

// G16 is one configured hyper group: four G4s plus the hyper switch.
type G16 struct {
	G4s   [G4sPerG16]*G4
	Hyper *bitvec.Matrix
}

// NewG16 returns an empty hyper group.
func NewG16() *G16 {
	g := &G16{Hyper: bitvec.NewMatrix(HyperSwitchSize, HyperSwitchSize)}
	for i := range g.G4s {
		g.G4s[i] = NewG4()
	}
	return g
}

// Connect configures routing for src -> dst (G16-local indices).
func (g *G16) Connect(src, dst int) error {
	if err := CheckG16(src, dst); err != nil {
		return err
	}
	if src/G4Size == dst/G4Size {
		return g.G4s[src/G4Size].Connect(src%G4Size, dst%G4Size)
	}
	g.Hyper.Set(hyperIndex(src), hyperIndex(dst))
	return nil
}

// Connected reports whether src -> dst is configured.
func (g *G16) Connected(src, dst int) bool {
	if !CoveredG16(src, dst) {
		return false
	}
	if src/G4Size == dst/G4Size {
		return g.G4s[src/G4Size].Connected(src%G4Size, dst%G4Size)
	}
	return g.Hyper.Get(hyperIndex(src), hyperIndex(dst))
}

// Propagate computes next-cycle enables for the whole group: each G4
// propagates locally, then active super port nodes drive the hyper switch,
// whose outputs are OR-ed into the destination G4s' super-PN columns.
// active and enable are G16Size-bit vectors.
func (g *G16) Propagate(active, enable bitvec.Words) {
	wordsPerG4 := G4Size / 64
	for i := range enable {
		enable[i] = 0
	}
	for u := 0; u < G4sPerG16; u++ {
		g.G4s[u].Propagate(active[u*wordsPerG4:(u+1)*wordsPerG4], enable[u*wordsPerG4:(u+1)*wordsPerG4])
	}
	active.ForEach(func(idx int) {
		hp := hyperIndex(idx)
		if hp < 0 {
			return
		}
		row := g.Hyper.Row(hp)
		for w, word := range row {
			for word != 0 {
				bit := bits.TrailingZeros64(word)
				word &= word - 1
				enable.Set(hyperSlot(w*64 + bit))
			}
		}
	})
}
