package sim_test

import (
	"bytes"
	"fmt"
	"testing"

	"impala/internal/automata"
	"impala/internal/core"
	"impala/internal/regexc"
	"impala/internal/sim"
	"impala/internal/sim/simtest"
)

// Every core of this package, on every geometry the compiler emits, is blind
// to where Feed's blocks end: the scalar engine, the kernel, a one-lane
// lockstep (which hands the block through) and a lane per connected component
// (which steps it cycle by cycle) all make the whole-stream scalar engine's
// reports, in their own whole-stream order, with equal statistics, however
// the stream is cut around a block edge — simtest.BlockEdges has the cuts.
func TestBlockEdgesEveryCore(t *testing.T) {
	if got := simtest.FeedBlock(); got != 2048 {
		t.Fatalf("a session hands its core %d-byte blocks, want 2048", got)
	}
	source := regexc.MustCompile([]regexc.Rule{
		{Pattern: "impala", Code: 1},
		{Pattern: "bl[ao]ck", Code: 2},
		{Pattern: "^head", Code: 3},
		{Pattern: "e+dge", Code: 4},
	})
	input := bytes.Repeat([]byte("head impala block eedge blackimpala edge "), 110)
	input = input[:len(input)-len(input)%2-1]
	for _, cfg := range []core.Config{
		{TargetBits: 8, StrideDims: 1}, {TargetBits: 8, StrideDims: 2},
		{TargetBits: 4, StrideDims: 1}, {TargetBits: 4, StrideDims: 2},
		{TargetBits: 4, StrideDims: 4}, {TargetBits: 4, StrideDims: 8},
	} {
		res, err := core.Compile(source, cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := res.NFA
		scalar, err := sim.NewEngine(n)
		if err != nil {
			t.Fatal(err)
		}
		want, wantStats := scalar.Run(input, nil)
		if len(want) < 400 {
			t.Fatalf("%+v: only %d reports; the fixture pins little", cfg, len(want))
		}
		c, err := sim.Compile(n)
		if err != nil {
			t.Fatal(err)
		}
		var perCC []sim.Lane
		for _, cc := range n.ConnectedComponents() {
			part, err := sim.Compile(n.Induced(cc))
			if err != nil {
				t.Fatal(err)
			}
			perCC = append(perCC, sim.Lane{New: func() sim.Core { return part.NewEngine() }, Orig: cc})
		}
		if len(perCC) < 2 {
			t.Fatalf("%+v: %d connected components; the interleaved lockstep goes unexercised", cfg, len(perCC))
		}
		all := make([]automata.StateID, n.NumStates())
		for i := range all {
			all[i] = automata.StateID(i)
		}
		oneLane := []sim.Lane{{New: func() sim.Core { return c.NewEngine() }, Orig: all}}
		for form, open := range map[string]func(sim.ReportSink) simtest.Stream{
			"scalar": func(sink sim.ReportSink) simtest.Stream { return sim.NewSession(scalar, sink) },
			"kernel": func(sink sim.ReportSink) simtest.Stream { return c.NewSession(sink) },
			"lockstep, one lane": func(sink sim.ReportSink) simtest.Stream {
				return sim.NewLockstep(n.Bits, n.Stride, oneLane).NewSession(sink)
			},
			"lockstep, a lane per component": func(sink sim.ReportSink) simtest.Stream {
				return sim.NewLockstep(n.Bits, n.Stride, perCC).NewSession(sink)
			},
		} {
			form = fmt.Sprintf("%d-bit x %d, %s", n.Bits, n.Stride, form)
			simtest.BlockEdges(t, form, n.BitsPerCycle(), open, input, want, wantStats)
		}
	}
}
