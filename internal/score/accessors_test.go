package score

import (
	"math/rand"
	"testing"

	"impala/internal/sim"
)

// TestCompiledAccessors pins the compiled form's introspection surface and
// the raw engine's sink plumbing: every accessor reflects what Compile was
// given, SetSink(nil) drops scores without touching binary behavior.
func TestCompiledAccessors(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	n := randNFA8(r, 6)
	w := randWeights(r, n)
	w.Threshold = -3
	c, err := Compile(n, w)
	if err != nil {
		t.Fatal(err)
	}
	if c.NFA() != n {
		t.Fatal("NFA() does not return the compiled automaton")
	}
	if c.Threshold() != -3 {
		t.Fatalf("Threshold() = %g, want -3", c.Threshold())
	}
	if c.ResidualStates() < 0 || c.ResidualStates() > n.NumStates() {
		t.Fatalf("ResidualStates() = %d out of range", c.ResidualStates())
	}
	if k := c.ScalarScoredStates(); k < 0 || k > n.NumStates() {
		t.Fatalf("ScalarScoredStates() = %d out of range", k)
	}

	input := randInput(r, 64)
	want, _ := c.Run(input)

	// A raw engine with an explicit sink sees every thresholded report; with
	// a nil sink the scores are dropped but the scan still runs.
	e := c.NewEngine()
	if bits, stride := e.Geometry(); bits != n.Bits || stride != n.Stride {
		t.Fatalf("Geometry() = (%d, %d), want (%d, %d)", bits, stride, n.Bits, n.Stride)
	}
	var got []Report
	e.SetSink(func(rep Report) { got = append(got, rep) })
	drop := func(sim.Report) {}
	// One-cycle blocks up to the middle, then the rest as one block.
	half := len(input) / 2
	for i := 0; i < half; i++ {
		e.StepBlock(input[i:i+1], i, -1, drop, nil)
	}
	e.StepBlock(input[half:], half, -1, drop, nil)
	SortReports(got)
	if len(got) != len(want) {
		t.Fatalf("sink saw %d reports, Run produced %d", len(got), len(want))
	}
	e2 := c.NewEngine()
	e2.SetSink(nil)
	e2.ResetState()
	e2.StepBlock(input, 0, -1, drop, nil)
}
