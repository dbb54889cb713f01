package impala

// Cross-system integration tests: real benchmark generators through the
// complete pipeline — V-TeSS compile, G4/G16 placement, bitstream build —
// with the capsule machine differentially checked against both the
// functional simulator and the untransformed automaton on benchmark-biased
// inputs. This is the whole-repository invariant in one place.

import (
	"testing"

	"impala/internal/arch"
	"impala/internal/core"
	"impala/internal/place"
	"impala/internal/sim"
	"impala/internal/workload"
)

func TestIntegrationBenchmarksEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test skipped in -short mode")
	}
	benchmarks := []string{"Bro217", "ExactMatch", "Hamming", "CoreRings", "Fermi"}
	configs := []core.Config{
		{TargetBits: 4, StrideDims: 2},
		{TargetBits: 4, StrideDims: 4},
	}
	for _, name := range benchmarks {
		b, ok := workload.Get(name)
		if !ok {
			t.Fatalf("unknown benchmark %s", name)
		}
		n, err := b.Generate(0.005, 11)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		input := workload.Input(n, 8192, 13)
		want, _, err := sim.Run(n, input)
		if err != nil {
			t.Fatalf("%s: reference run: %v", name, err)
		}
		for _, cfg := range configs {
			res, err := core.Compile(n, cfg)
			if err != nil {
				t.Fatalf("%s %+v: compile: %v", name, cfg, err)
			}
			if !core.CapsuleLegal(res.NFA) {
				t.Fatalf("%s %+v: not capsule legal", name, cfg)
			}
			pl, err := place.Place(res.NFA, place.Options{Seed: 3})
			if err != nil {
				t.Fatalf("%s %+v: place: %v", name, cfg, err)
			}
			if !pl.Valid() {
				t.Fatalf("%s %+v: %d uncovered transitions", name, cfg, pl.TotalUncovered)
			}
			m, err := arch.Build(res.NFA, pl)
			if err != nil {
				t.Fatalf("%s %+v: build: %v", name, cfg, err)
			}
			gotHW, _ := m.Run(input)
			if !sim.SameReports(want, gotHW) {
				t.Fatalf("%s %+v: capsule machine diverges from original (%d vs %d reports)",
					name, cfg, len(gotHW), len(want))
			}
			gotSW, _, err := sim.Run(res.NFA, input)
			if err != nil {
				t.Fatalf("%s %+v: transformed run: %v", name, cfg, err)
			}
			if !sim.SameReports(want, gotSW) {
				t.Fatalf("%s %+v: simulator diverges from original", name, cfg)
			}
		}
	}
}
