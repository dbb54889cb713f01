package interconnect

import "impala/internal/bitvec"

// Fabric is the executable switch-group abstraction the machine drives: a
// plain G4 or a hierarchical G16.
type Fabric interface {
	// Slots returns the state capacity of the group.
	Slots() int
	// Connect configures routing for a group-local transition.
	Connect(src, dst int) error
	// Propagate computes next-cycle enables from this cycle's actives.
	Propagate(active, enable bitvec.Words)
	// Activity returns the paper's per-cycle energy accounting: local
	// switch partitions with at least one driving state, global/hyper
	// switches driven, and cross-block signals (wire energy).
	Activity(active bitvec.Words) (localBlocks, globalReads, crossSignals int)
	// ConfigBytes returns the switch-image bitstream payload size.
	ConfigBytes() int
}

// Slots implements Fabric.
func (g *G4) Slots() int { return G4Size }

// Activity implements Fabric.
func (g *G4) Activity(active bitvec.Words) (localBlocks, globalReads, crossSignals int) {
	var blockActive [LocalsPerG4]bool
	globalDriven := false
	active.ForEach(func(idx int) {
		blockActive[idx/LocalSwitchSize] = true
		if idx%LocalSwitchSize < PortNodes {
			pn := (idx/LocalSwitchSize)*PortNodes + idx%LocalSwitchSize
			for _, w := range g.Global.Row(pn) {
				if w != 0 {
					globalDriven = true
					crossSignals++
					break
				}
			}
		}
	})
	for _, a := range blockActive {
		if a {
			localBlocks++
		}
	}
	if globalDriven {
		globalReads = 1
	}
	return localBlocks, globalReads, crossSignals
}

// ConfigBytes implements Fabric.
func (g *G4) ConfigBytes() int { return G4ConfigBytes }

// Slots implements Fabric.
func (g *G16) Slots() int { return G16Size }

// Activity implements Fabric.
func (g *G16) Activity(active bitvec.Words) (localBlocks, globalReads, crossSignals int) {
	wordsPerG4 := G4Size / 64
	for u := 0; u < G4sPerG16; u++ {
		lb, gr, cs := g.G4s[u].Activity(active[u*wordsPerG4 : (u+1)*wordsPerG4])
		localBlocks += lb
		globalReads += gr
		crossSignals += cs
	}
	hyperDriven := false
	active.ForEach(func(idx int) {
		hp := hyperIndex(idx)
		if hp < 0 {
			return
		}
		for _, w := range g.Hyper.Row(hp) {
			if w != 0 {
				hyperDriven = true
				crossSignals++
				break
			}
		}
	})
	if hyperDriven {
		globalReads++
	}
	return localBlocks, globalReads, crossSignals
}

// ConfigBytes implements Fabric.
func (g *G16) ConfigBytes() int { return G16ConfigBytes }
