package score

import (
	"math/rand"
	"reflect"
	"testing"

	"impala/internal/sim"
)

// TestCompiledAccessors pins the compiled form's introspection surface and
// the raw engine's sink plumbing: every accessor reflects what Compile was
// given, and a block's sink receives the scored reports.
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
	if k := c.ScalarScoredStates(); k < 0 || k > n.NumStates() {
		t.Fatalf("ScalarScoredStates() = %d out of range", k)
	}

	input := randInput(r, 64)
	want, _ := c.Run(input)

	// A raw engine stepped block by block hands the sink of each block the
	// reports Run returns, scores included, and holds no sink between blocks.
	e := c.NewEngine()
	if bits, stride := e.Geometry(); bits != n.Bits || stride != n.Stride {
		t.Fatalf("Geometry() = (%d, %d), want (%d, %d)", bits, stride, n.Bits, n.Stride)
	}
	var got []sim.Report
	collect := func(rep sim.Report) { got = append(got, rep) }
	// One-cycle blocks up to the middle, then the rest as one block.
	half := len(input) / 2
	for i := 0; i < half; i++ {
		e.StepBlock(input[i:i+1], i, -1, collect, nil)
	}
	e.StepBlock(input[half:], half, -1, collect, nil)
	sim.SortReports(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("the block sinks saw %v, Run produced %v", got, want)
	}
	if e.sink != nil {
		t.Fatal("an idle engine still holds the last block's sink")
	}
}
