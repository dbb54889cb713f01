package sim_test

import (
	"math/rand"
	"sort"
	"testing"

	"impala/internal/automata"
	"impala/internal/sim"
	"impala/internal/sim/simtest"
)

// naiveRun is an independent, deliberately simple reference implementation
// of the execution semantics (maps and slices, no bitsets, no engine
// reuse): the redundancy that keeps the optimized engine honest.
func naiveRun(n *automata.NFA, input []byte) []sim.Report {
	syms := sim.SubSymbols(n.Bits, input)
	S := n.Stride
	totalBits := len(syms) * n.Bits
	cycles := (len(syms) + S - 1) / S

	active := map[automata.StateID]bool{}
	var reports []sim.Report
	for t := 0; t < cycles; t++ {
		chunk := make([]byte, S)
		for i := 0; i < S; i++ {
			if p := t*S + i; p < len(syms) {
				chunk[i] = syms[p]
			}
		}
		enabled := map[automata.StateID]bool{}
		for i := range n.States {
			switch n.States[i].Start {
			case automata.StartAllInput:
				enabled[automata.StateID(i)] = true
			case automata.StartOfData:
				if t == 0 {
					enabled[automata.StateID(i)] = true
				}
			case automata.StartEven:
				if t%2 == 0 {
					enabled[automata.StateID(i)] = true
				}
			}
		}
		for id := range active {
			for _, succ := range n.States[id].Out {
				enabled[succ] = true
			}
		}
		next := map[automata.StateID]bool{}
		for id := range enabled {
			if n.States[id].Match.Has(chunk) {
				next[id] = true
				s := &n.States[id]
				if s.Report {
					bitPos := (t*S + s.ReportOffset) * n.Bits
					if bitPos <= totalBits {
						reports = append(reports, sim.Report{BitPos: bitPos, Code: s.ReportCode, State: id})
					}
				}
			}
		}
		active = next
	}
	sort.Slice(reports, func(i, j int) bool {
		if reports[i].BitPos != reports[j].BitPos {
			return reports[i].BitPos < reports[j].BitPos
		}
		if reports[i].Code != reports[j].Code {
			return reports[i].Code < reports[j].Code
		}
		return reports[i].State < reports[j].State
	})
	return reports
}

// Property: the optimized engine agrees with the naive reference on random
// automata of every geometry, start kind and report offset.
func TestEngineMatchesNaiveReference(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 60; trial++ {
		n := simtest.RandomNFA(r, 0)
		if err := n.Validate(); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 4; k++ {
			input := make([]byte, r.Intn(40))
			for i := range input {
				input[i] = byte(r.Intn(256))
			}
			got, _, err := sim.Run(n, input)
			if err != nil {
				t.Fatal(err)
			}
			want := naiveRun(n, input)
			if len(got) != len(want) {
				t.Fatalf("trial %d: engine %d reports, reference %d", trial, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d report %d: engine %+v, reference %+v", trial, i, got[i], want[i])
				}
			}
		}
	}
}
