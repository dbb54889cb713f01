package place

import (
	"fmt"
	"math/rand"
	"testing"

	"impala/internal/automata"
	"impala/internal/bitvec"
	"impala/internal/interconnect"
)

// chainNFA builds k independent literal chains of the given length.
func chainNFA(k, length int) *automata.NFA {
	n := automata.New(8, 1)
	for i := 0; i < k; i++ {
		sets := make([]bitvec.ByteSet, length)
		for j := range sets {
			sets[j] = bitvec.ByteOf(byte('a' + (i+j)%26))
		}
		n.AddChain(sets, automata.StartAllInput, i+1)
	}
	return n
}

// bigCC builds one connected component with n states: a chain with extra
// random cross edges and loops.
func bigCC(n int, seed int64) *automata.NFA {
	r := rand.New(rand.NewSource(seed))
	a := automata.New(8, 1)
	for i := 0; i < n; i++ {
		kind := automata.StartNone
		if i == 0 {
			kind = automata.StartAllInput
		}
		a.AddState(automata.State{
			Match:      automata.MatchSet{automata.Rect{bitvec.ByteOf(byte(r.Intn(256)))}},
			Start:      kind,
			Report:     i == n-1,
			ReportCode: 1,
		})
	}
	for i := 0; i < n-1; i++ {
		a.AddEdge(automata.StateID(i), automata.StateID(i+1))
	}
	// Real-world automata have diagonal-shaped connectivity (short-range
	// extra edges) plus the occasional long-distance loop — mirror that.
	for k := 0; k < n/4; k++ {
		src := r.Intn(n)
		delta := r.Intn(32) - 16
		dst := src + delta
		if dst < 0 || dst >= n {
			continue
		}
		a.AddEdge(automata.StateID(src), automata.StateID(dst))
	}
	for k := 0; k < 3; k++ {
		a.AddEdge(automata.StateID(r.Intn(n)), automata.StateID(r.Intn(n)))
	}
	a.DedupEdges()
	return a
}

// slotOf inverts g.Slots: each placed state's group-local index.
func slotOf(g *G4Placement) map[automata.StateID]int {
	m := map[automata.StateID]int{}
	for slot, id := range g.Slots {
		if id >= 0 {
			m[id] = slot
		}
	}
	return m
}

func checkValid(t *testing.T, n *automata.NFA, p *Placement) {
	t.Helper()
	if !p.Valid() {
		t.Fatalf("placement has %d uncovered transitions", p.TotalUncovered)
	}
	// Every state placed exactly once across all G4s.
	seen := map[automata.StateID]bool{}
	for _, g := range p.G4s {
		for _, id := range g.Slots {
			if id < 0 {
				continue
			}
			if seen[id] {
				t.Fatalf("state %d placed twice", id)
			}
			seen[id] = true
		}
		// Every intra-G4 edge covered.
		so := slotOf(g)
		for id, slot := range so {
			for _, dst := range n.States[id].Out {
				dslot, ok := so[dst]
				if !ok {
					t.Fatalf("edge %d->%d crosses G4s", id, dst)
				}
				if !interconnect.Covered(slot, dslot) {
					t.Fatalf("edge %d->%d uncovered (%d->%d)", id, dst, slot, dslot)
				}
			}
		}
	}
	if len(seen) != n.NumStates() {
		t.Fatalf("placed %d of %d states", len(seen), n.NumStates())
	}
}

func TestPlaceSmallChains(t *testing.T) {
	n := chainNFA(10, 20) // 200 states, trivially block-packable
	p, err := Place(n, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkValid(t, n, p)
	if len(p.G4s) != 1 {
		t.Fatalf("G4s = %d, want 1", len(p.G4s))
	}
	if p.GAInvocations != 0 {
		t.Fatalf("GA should not be needed for block-packable chains, ran %d times", p.GAInvocations)
	}
}

func TestPlaceManyCCsMultipleG4s(t *testing.T) {
	n := chainNFA(30, 100) // 3000 states -> at least 3 G4s
	p, err := Place(n, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkValid(t, n, p)
	if len(p.G4s) < 3 {
		t.Fatalf("G4s = %d, want >= 3", len(p.G4s))
	}
	if p.AvgStatesPerG4() <= 0 {
		t.Fatal("AvgStatesPerG4 = 0")
	}
}

func TestPlaceStraddlingCC(t *testing.T) {
	// A 400-state CC cannot fit one 256-block: it must straddle and route
	// cross-block edges through port nodes.
	n := bigCC(400, 7)
	p, err := Place(n, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkValid(t, n, p)
}

func TestPlaceLongDistanceLoop(t *testing.T) {
	// The CA-placement pathology (Section 5.2): an automaton larger than
	// 256 states with a long-distance loop. The G4 + GA must still place it.
	n := bigCC(300, 11)
	// Add a loop from the last state back to the first.
	n.AddEdge(automata.StateID(299), automata.StateID(0))
	p, err := Place(n, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkValid(t, n, p)
}

func TestPlaceHierarchicalG16(t *testing.T) {
	// A component beyond one G4 (1024) goes onto a G16 group with the
	// hyper switch routing cross-G4 edges between super port nodes.
	n := bigCC(interconnect.G4Size+300, 13)
	p, err := Place(n, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalUncovered != 0 {
		t.Fatalf("hierarchical placement left %d uncovered", p.TotalUncovered)
	}
	var g16 *G4Placement
	for _, g := range p.G4s {
		if g.Hierarchical {
			g16 = g
		}
	}
	if g16 == nil {
		t.Fatal("no hierarchical group used")
	}
	if len(g16.Slots) != interconnect.G16Size {
		t.Fatalf("G16 slots = %d", len(g16.Slots))
	}
	// Every edge covered under the G16 predicate.
	so := slotOf(g16)
	for id, slot := range so {
		for _, dst := range n.States[id].Out {
			if dslot, ok := so[dst]; !ok || !interconnect.CoveredG16(slot, dslot) {
				t.Fatalf("edge %d->%d uncovered (%d->%d)", id, dst, slot, dslot)
			}
		}
	}
}

func TestPlaceRejectsOversizedCC(t *testing.T) {
	n := bigCC(interconnect.G16Size+1, 13)
	if _, err := Place(n, Options{Seed: 5}); err == nil {
		t.Fatal("oversized CC accepted")
	}
}

func TestPlaceBFSOnlyCanFail(t *testing.T) {
	// With repair and GA disabled, straddling CCs generally have uncovered
	// edges (the Figure 10(b) red dots); with them enabled they must reach
	// zero. Use a dense component to make BFS failure overwhelmingly likely.
	n := bigCC(700, 17)
	bfs, err := Place(n, Options{Seed: 6, DisableGA: true, DisableRepair: true})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Place(n, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if full.TotalUncovered > 0 {
		t.Fatalf("full placement failed: %d uncovered", full.TotalUncovered)
	}
	if bfs.TotalUncovered == 0 {
		t.Log("BFS-only placement happened to succeed (acceptable but unusual)")
	}
	if bfs.TotalUncovered < full.TotalUncovered {
		t.Fatal("BFS-only beat full search")
	}
}

func TestPlaceDeterministic(t *testing.T) {
	n := bigCC(300, 19)
	p1, err := Place(n, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Place(n, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.G4s) != len(p2.G4s) || p1.TotalUncovered != p2.TotalUncovered {
		t.Fatal("placement not deterministic")
	}
	for i := range p1.G4s {
		for s := range p1.G4s[i].Slots {
			if p1.G4s[i].Slots[s] != p2.G4s[i].Slots[s] {
				t.Fatal("slot assignment not deterministic")
			}
		}
	}
}

func TestPackCCsDensity(t *testing.T) {
	// 9 CCs of 109 states (EntityResolution-like at small scale): 9*109=981
	// fits one G4.
	n := automata.New(8, 1)
	for i := 0; i < 9; i++ {
		sets := make([]bitvec.ByteSet, 109)
		for j := range sets {
			sets[j] = bitvec.ByteOf(byte(j % 251))
		}
		n.AddChain(sets, automata.StartAllInput, i+1)
	}
	p, err := Place(n, Options{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	checkValid(t, n, p)
	if len(p.G4s) != 1 {
		t.Fatalf("packing used %d G4s, want 1 (%.1f states/G4)", len(p.G4s), p.AvgStatesPerG4())
	}
}

func TestPlaceRandomProperty(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		size := 100 + int(seed)*150
		n := bigCC(size, seed+100)
		p, err := Place(n, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if p.TotalUncovered != 0 {
			t.Fatalf("seed %d size %d: %d uncovered", seed, size, p.TotalUncovered)
		}
		checkValid(t, n, p)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Population == 0 || o.Generations == 0 || o.RepairSweeps == 0 {
		t.Fatalf("defaults missing: %+v", o)
	}
}

func ExamplePlacement_AvgStatesPerG4() {
	n := automata.New(8, 1)
	n.AddLiteral("hello", automata.StartAllInput, 1)
	p, _ := Place(n, Options{Seed: 1})
	fmt.Println(p.AvgStatesPerG4())
	// Output: 5
}

// Force the genetic algorithm to do the work: repair disabled, straddling
// component with cut edges — the GA's crossover/mutation must reach zero.
func TestPlaceGAOnly(t *testing.T) {
	n := bigCC(300, 23)
	p, err := Place(n, Options{Seed: 9, DisableRepair: true, Generations: 600, Population: 48})
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalUncovered != 0 {
		t.Fatalf("GA-only placement left %d uncovered", p.TotalUncovered)
	}
	checkValid(t, n, p)
	if p.GAInvocations == 0 {
		t.Fatal("GA was not invoked")
	}
}

func TestPlaceNaiveSeed(t *testing.T) {
	// Naive sequential BFS labelling with search disabled: valid only when
	// everything fits the first block; a straddling CC generally fails.
	n := bigCC(300, 29)
	p, err := Place(n, Options{Seed: 1, NaiveSeed: true, DisableGA: true, DisableRepair: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalUncovered == 0 {
		t.Log("naive seed happened to succeed (unusual for 300 states)")
	}
	// A small CC fits block 0 entirely: naive is fine.
	small := chainNFA(1, 50)
	p2, err := Place(small, Options{Seed: 1, NaiveSeed: true, DisableGA: true, DisableRepair: true})
	if err != nil {
		t.Fatal(err)
	}
	if p2.TotalUncovered != 0 {
		t.Fatalf("naive seed failed on a 50-state chain: %d", p2.TotalUncovered)
	}
}
