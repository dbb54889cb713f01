package arch_test

import (
	"fmt"
	"slices"
	"testing"

	"impala/internal/arch"
	"impala/internal/automata"
	"impala/internal/bitvec"
	"impala/internal/core"
	"impala/internal/interconnect"
	"impala/internal/place"
	"impala/internal/sim"
	"impala/internal/sim/simtest"
)

// checkPair is an automaton, a placement of it and an input to run it on.
type checkPair struct {
	name  string
	n     *automata.NFA
	p     *place.Placement
	input []byte
}

// checkPairs returns the placed spine cases the compiler emitted, whose
// placements are G4s, and a 1300-state ring placed on a hierarchical G16.
func checkPairs(tb testing.TB) []checkPair {
	var pairs []checkPair
	for _, c := range simtest.Cases(tb) {
		if c.Source == nil || !core.CapsuleLegal(c.NFA) {
			continue
		}
		p, err := place.Place(c.NFA, place.Options{Seed: 1})
		if err != nil {
			tb.Fatal(err)
		}
		if p.Valid() {
			pairs = append(pairs, checkPair{c.Name, c.NFA, p, c.Input[:min(len(c.Input), 256)]})
		}
	}
	n := hierarchicalRing(1300)
	p, err := place.Place(n, place.Options{Seed: 2})
	if err != nil {
		tb.Fatal(err)
	}
	if !p.Valid() || !slices.ContainsFunc(p.G4s, func(g *place.G4Placement) bool { return g.Hierarchical }) {
		tb.Fatal("the ring did not place on a hierarchical group")
	}
	in := make([]byte, 1400)
	for i := range in {
		in[i] = byte('a' + i%4)
	}
	return append(pairs, checkPair{"G16 ring", n, p, in})
}

// hierarchicalRing is a chain of l states over "abcd..." closed into a
// ring: one component past a G4's 1024 slots, so it places on a G16 and its
// closing edge crosses the hyper switch.
func hierarchicalRing(l int) *automata.NFA {
	n := automata.New(8, 1)
	prev := automata.StateID(-1)
	for i := 0; i < l; i++ {
		kind := automata.StartNone
		if i == 0 {
			kind = automata.StartAllInput
		}
		id := n.AddState(automata.State{
			Match:        automata.MatchSet{automata.Rect{bitvec.ByteOf(byte('a' + i%4))}},
			Start:        kind,
			Report:       i == l-1,
			ReportCode:   1,
			ReportOffset: 1,
		})
		if prev >= 0 {
			n.AddEdge(prev, id)
		}
		prev = id
	}
	n.AddEdge(prev, 0)
	return n
}

// clonePlacement deep-copies the slot tables a mutation may touch.
func clonePlacement(p *place.Placement) *place.Placement {
	c := &place.Placement{TotalUncovered: p.TotalUncovered}
	for _, g := range p.G4s {
		cg := *g
		cg.Slots = slices.Clone(g.Slots)
		c.G4s = append(c.G4s, &cg)
	}
	return c
}

// mutate applies one mutation per three bytes of ops: move or duplicate a
// placed slot's state onto another slot, clear a slot, flip a group's
// Hierarchical, add an edge, or give a state a two-rect match set.
func mutate(n *automata.NFA, p *place.Placement, ops []byte) {
	type ref struct{ g, s int }
	for ; len(ops) >= 3; ops = ops[3:] {
		var placed []ref
		for gi, g := range p.G4s {
			for s, id := range g.Slots {
				if id >= 0 {
					placed = append(placed, ref{gi, s})
				}
			}
		}
		a, b := int(ops[1]), int(ops[2])
		switch ops[0] % 6 {
		case 0, 1: // move, duplicate
			if len(placed) == 0 {
				continue
			}
			src := placed[(a*256+b)%len(placed)]
			g := p.G4s[(a+b)%len(p.G4s)]
			dst := (a*131 + b*7) % len(g.Slots)
			id := p.G4s[src.g].Slots[src.s]
			if ops[0]%6 == 0 {
				p.G4s[src.g].Slots[src.s] = -1
			}
			g.Slots[dst] = id
		case 2: // clear
			if len(placed) > 0 {
				r := placed[(a*256+b)%len(placed)]
				p.G4s[r.g].Slots[r.s] = -1
			}
		case 3: // flip Hierarchical
			g := p.G4s[a%len(p.G4s)]
			g.Hierarchical = !g.Hierarchical
		case 4: // add an edge
			n.AddEdge(automata.StateID(a%n.NumStates()), automata.StateID(b%n.NumStates()))
		case 5: // a two-rect match set no rect covers
			s := &n.States[(a*256+b)%n.NumStates()]
			r0, r1 := automata.NewRect(n.Stride), automata.NewRect(n.Stride)
			for d := range r0 {
				r0[d], r1[d] = bitvec.ByteOf(0), bitvec.ByteOf(1)
			}
			s.Match = automata.MatchSet{r0, r1}
		}
	}
}

// FuzzCheck pins Check to Build: on a placed automaton under any run of
// mutations, Check accepts exactly when Build succeeds and refuses with
// Build's error text, and a machine Build configures from what Check accepts
// reports what the functional simulator reports.
func FuzzCheck(f *testing.F) {
	pairs := checkPairs(f)
	for i := range pairs {
		f.Add(uint8(i), []byte{})
		for op := byte(0); op < 6; op++ {
			f.Add(uint8(i), []byte{op, byte(i), 3 * op})
		}
	}
	f.Fuzz(func(t *testing.T, idx uint8, ops []byte) {
		base := pairs[int(idx)%len(pairs)]
		n, p := base.n.Clone(), clonePlacement(base.p)
		mutate(n, p, ops)
		checkErr := arch.Check(n, p)
		m, buildErr := arch.Build(n, p)
		switch {
		case (checkErr == nil) != (buildErr == nil):
			t.Fatalf("%s: Check %v, Build %v", base.name, checkErr, buildErr)
		case checkErr != nil:
			if checkErr.Error() != buildErr.Error() {
				t.Fatalf("%s: Check %q, Build %q", base.name, checkErr, buildErr)
			}
			return
		}
		got, _ := m.Run(base.input)
		want, _, err := sim.Run(n, base.input)
		if err != nil {
			t.Fatal(err)
		}
		if !sim.SameReports(got, want) {
			t.Fatalf("%s: machine %v, simulator %v", base.name, sim.ReportKeys(got), sim.ReportKeys(want))
		}
	})
}

// twoStates is a two-state automaton, "a" then "b", whose states sit on
// the given (group, slot) pairs of groups of the given kinds.
func twoStates(kinds []bool, locs [2][2]int) (*automata.NFA, *place.Placement) {
	n := automata.New(8, 1)
	n.AddLiteral("ab", automata.StartAllInput, 1)
	p := &place.Placement{}
	for _, hier := range kinds {
		g := &place.G4Placement{Hierarchical: hier, Slots: make([]automata.StateID, interconnect.G4Size)}
		if hier {
			g.Slots = make([]automata.StateID, interconnect.G16Size)
		}
		for i := range g.Slots {
			g.Slots[i] = -1
		}
		p.G4s = append(p.G4s, g)
	}
	for id, l := range locs {
		p.G4s[l[0]].Slots[l[1]] = automata.StateID(id)
	}
	return n, p
}

// TestCheckErrors pins each of Check's refusals, in the order Check makes
// them, to Build's error.
func TestCheckErrors(t *testing.T) {
	g4 := []bool{false}
	const pn, blk = interconnect.PortNodes, interconnect.LocalSwitchSize
	for _, tc := range []struct {
		name  string
		kinds []bool
		locs  [2][2]int
		edit  func(n *automata.NFA, p *place.Placement)
		want  string
	}{
		{"accepted", g4, [2][2]int{{0, 0}, {0, 1}}, nil, ""},
		{"invalid automaton", g4, [2][2]int{{0, 0}, {0, 1}}, func(n *automata.NFA, _ *place.Placement) { n.States[1].ReportOffset = 0 },
			"arch: Build input invalid: automata: state 1 report offset 0 out of [1,1]"},
		{"unrouted placement", g4, [2][2]int{{0, 0}, {0, 1}}, func(_ *automata.NFA, p *place.Placement) { p.TotalUncovered = 2 },
			"arch: placement has 2 uncovered transitions"},
		{"state placed twice, another never", g4, [2][2]int{{0, 0}, {0, 1}}, func(_ *automata.NFA, p *place.Placement) { p.G4s[0].Slots[1] = 0 },
			"arch: placement covers 1 of 2 states"},
		{"state out of range", g4, [2][2]int{{0, 0}, {0, 1}}, func(_ *automata.NFA, p *place.Placement) { p.G4s[0].Slots[1] = 2 },
			"arch: placement covers 1 of 2 states"},
		{"state placed twice", g4, [2][2]int{{0, 0}, {0, 1}}, func(_ *automata.NFA, p *place.Placement) { p.G4s[0].Slots[2] = 0 },
			"arch: placement fills 1 more slots than its 2 states"},
		{"group the wrong size", g4, [2][2]int{{0, 0}, {0, 1}}, func(_ *automata.NFA, p *place.Placement) { p.G4s[0].Hierarchical = true },
			"arch: placement group has 1024 slots, fabric 4096"},
		{"two rects", g4, [2][2]int{{0, 0}, {0, 1}}, func(n *automata.NFA, _ *place.Placement) {
			n.States[1].Match = append(n.States[1].Match, automata.Rect{bitvec.ByteOf('c')})
		}, "arch: state 1 is not capsule-legal (2 rects); run Refine first"},
		{"two rects, one covering", g4, [2][2]int{{0, 0}, {0, 1}}, func(n *automata.NFA, _ *place.Placement) {
			n.States[1].Match = append(n.States[1].Match, automata.Rect{bitvec.ByteRange('a', 'c')})
		}, ""},
		{"edge across groups", []bool{false, false}, [2][2]int{{0, 0}, {1, 0}}, nil,
			"arch: edge 0->1 crosses switch groups"},
		{"uncovered G4 route", g4, [2][2]int{{0, pn}, {0, blk + pn}}, nil,
			"interconnect: pair (64,320) not covered by G4 fabric"},
		{"global G4 route", g4, [2][2]int{{0, pn - 1}, {0, blk + pn - 1}}, nil, ""},
		{"uncovered route in a G16's G4", []bool{true}, [2][2]int{{0, interconnect.G4Size + pn}, {0, interconnect.G4Size + blk + pn}}, nil,
			"interconnect: pair (64,320) not covered by G4 fabric"},
		{"uncovered G16 route", []bool{true}, [2][2]int{{0, 16}, {0, interconnect.G4Size + 16}}, nil,
			"interconnect: pair (16,1040) not covered by G16 fabric"},
		{"hyper route", []bool{true}, [2][2]int{{0, 15}, {0, interconnect.G4Size + 15}}, nil, ""},
	} {
		n, p := twoStates(tc.kinds, tc.locs)
		if tc.edit != nil {
			tc.edit(n, p)
		}
		checkErr := arch.Check(n, p)
		m, buildErr := arch.Build(n, p)
		if got := fmt.Sprint(checkErr); checkErr != nil && got != tc.want || checkErr == nil && tc.want != "" {
			t.Errorf("%s: Check %v, want %q", tc.name, checkErr, tc.want)
		}
		if fmt.Sprint(checkErr) != fmt.Sprint(buildErr) {
			t.Errorf("%s: Check %v, Build %v", tc.name, checkErr, buildErr)
		}
		if m != nil {
			if got, _ := m.Run([]byte("xabab")); len(got) != 2 {
				t.Errorf("%s: %d reports on xabab, want 2", tc.name, len(got))
			}
		}
	}
}
