package arch_test

import (
	"fmt"
	"math/rand"
	"testing"

	"impala/internal/arch"
	"impala/internal/automata"
	"impala/internal/bitvec"
	"impala/internal/core"
	"impala/internal/place"
	"impala/internal/sim"
)

func compileAndBuild(t *testing.T, n *automata.NFA, cfg core.Config) (*arch.Machine, *automata.NFA) {
	t.Helper()
	res, err := core.Compile(n, cfg)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	p, err := place.Place(res.NFA, place.Options{Seed: 1})
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	m, err := arch.Build(res.NFA, p)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return m, res.NFA
}

func TestMachineActivityStats(t *testing.T) {
	n := automata.New(8, 1)
	n.AddLiteral("aa", automata.StartAllInput, 1)
	m, _ := compileAndBuild(t, n, core.Config{TargetBits: 4, StrideDims: 2})
	_, stats := m.Run([]byte("aaaaaaaa"))
	if stats.Cycles != 8 {
		t.Fatalf("cycles = %d", stats.Cycles)
	}
	if stats.LocalSwitchActivations == 0 {
		t.Fatal("no local switch activity recorded")
	}
}

func TestMachineRejectsNonCapsuleLegal(t *testing.T) {
	n := automata.New(4, 2)
	ms := automata.MatchSet{
		automata.Rect{bitvec.ByteOf(1), bitvec.ByteOf(2)},
		automata.Rect{bitvec.ByteOf(3), bitvec.ByteOf(4)},
	}
	n.AddState(automata.State{Match: ms, Start: automata.StartAllInput, Report: true, ReportOffset: 2})
	p, err := place.Place(n, place.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := arch.Build(n, p); err == nil {
		t.Fatal("non-capsule-legal automaton accepted")
	}
}

func TestMachineBitstreamBytes(t *testing.T) {
	n := automata.New(8, 1)
	n.AddLiteral("ab", automata.StartAllInput, 1)
	m, _ := compileAndBuild(t, n, core.Config{TargetBits: 4, StrideDims: 4})
	got := m.BitstreamBytes()
	// One G4: 4 blocks × 4 dims × (16×256)/8 + 4 locals × 256×256/8 + global.
	want := 4*4*16*256/8 + 4*256*256/8 + 256*256/8
	if got != want {
		t.Fatalf("BitstreamBytes = %d, want %d", got, want)
	}
}

func TestMachineSquashedDesign(t *testing.T) {
	// 1-stride 4-bit design (StartEven states) must also run correctly.
	n := automata.New(8, 1)
	n.AddLiteral("ab", automata.StartAllInput, 1)
	m, transformed := compileAndBuild(t, n, core.Config{TargetBits: 4, StrideDims: 1})
	for _, in := range []string{"ab", "xab", "abab", "ba"} {
		mrep, _ := m.Run([]byte(in))
		srep, _, err := sim.Run(transformed, []byte(in))
		if err != nil {
			t.Fatal(err)
		}
		if !sim.SameReports(mrep, srep) {
			t.Fatalf("input %q: machine=%v sim=%v", in, sim.ReportKeys(mrep), sim.ReportKeys(srep))
		}
	}
}

func ExampleDesign_ThroughputGbps() {
	d := arch.Design{Arch: arch.Impala, Bits: 4, Stride: 4}
	fmt.Printf("%.0f Gbps\n", d.ThroughputGbps())
	// Output: 80 Gbps
}

// TestMachineHierarchicalG16 exercises the higher-level-switch extension
// end-to-end: a single >1024-state component is placed on a G16 and the
// capsule machine must agree with the functional simulator across the
// hyper switch.
func TestMachineHierarchicalG16(t *testing.T) {
	n := automata.New(8, 1)
	const L = 1300
	prev := automata.StateID(-1)
	for i := 0; i < L; i++ {
		kind := automata.StartNone
		if i == 0 {
			kind = automata.StartAllInput
		}
		id := n.AddState(automata.State{
			Match:        automata.MatchSet{automata.Rect{bitvec.ByteOf(byte('a' + i%4))}},
			Start:        kind,
			Report:       i == L-1,
			ReportCode:   1,
			ReportOffset: 1,
		})
		if prev >= 0 {
			n.AddEdge(prev, id)
		}
		prev = id
	}
	// A long-distance loop so the hyper switch is actually used.
	n.AddEdge(prev, 0)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	p, err := place.Place(n, place.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Valid() {
		t.Fatalf("placement uncovered: %d", p.TotalUncovered)
	}
	hier := false
	for _, g := range p.G4s {
		if g.Hierarchical {
			hier = true
		}
	}
	if !hier {
		t.Fatal("expected a hierarchical group")
	}
	m, err := arch.Build(n, p)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	// The chain is abcdabcd...; feed exact prefixes and noise.
	for trial := 0; trial < 3; trial++ {
		input := make([]byte, 2000+r.Intn(1000))
		for i := range input {
			input[i] = byte('a' + i%4)
		}
		// Corrupt a few positions.
		for k := 0; k < trial*3; k++ {
			input[r.Intn(len(input))] = 'z'
		}
		mrep, _ := m.Run(input)
		srep, _, err := sim.Run(n, input)
		if err != nil {
			t.Fatal(err)
		}
		if !sim.SameReports(mrep, srep) {
			t.Fatalf("trial %d: machine=%v sim=%v", trial, len(mrep), len(srep))
		}
	}
}
