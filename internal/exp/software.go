package exp

import (
	"errors"
	"fmt"
	"time"

	"impala/internal/arch"
	"impala/internal/dfa"
	"impala/internal/sim"
	"impala/internal/workload"
)

// SoftwareBaseline grounds the paper's framing that spatial in-memory
// automata processing dominates software matching: it measures this
// machine's table-driven DFA scan rate and NFA-simulation rate per
// benchmark and compares them to Impala's deterministic 80 Gbps (10 GB/s)
// line rate. DFA construction blowups (the other classic software failure
// mode) are reported as such.
func SoftwareBaseline(o Options) ([]*Table, error) {
	o = o.withDefaults()
	suite, err := o.suite("Bro217", "ExactMatch", "Ranges05", "Hamming", "CoreRings", "Snort")
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Software baselines vs Impala line rate (this host CPU, one core)",
		Header: []string{"benchmark", "DFA states", "DFA table", "DFA MB/s",
			"NFA scalar MB/s", "NFA bitpar MB/s", "Impala speedup vs DFA"},
	}
	inputBytes := o.InputKB * 1024
	impalaGBs := arch.Design{Arch: arch.Impala, Bits: 4, Stride: 4}.ThroughputGbps() / 8

	for _, b := range suite {
		n, err := o.generate(b)
		if err != nil {
			return nil, err
		}
		input := workload.Input(n, inputBytes, o.Seed+3)

		// NFA functional simulation rate: scalar reference engine vs the
		// bit-parallel compiled engine (the default behind sim.Run).
		e, err := sim.NewEngine(n)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		e.Run(input, nil)
		nfaMBs := float64(len(input)) / time.Since(t0).Seconds() / 1e6

		c, err := sim.Compile(n)
		if err != nil {
			return nil, err
		}
		ce := c.NewEngine()
		t0 = time.Now()
		ce.Run(input, nil)
		bitparMBs := float64(len(input)) / time.Since(t0).Seconds() / 1e6

		// DFA: construction may blow up — a faithful result. The cap is the
		// most an 8-bit stride-1 table can hold (dfa.MaxPhaseStates).
		d, err := dfa.Build(n, dfa.Options{MaxStates: 1 << 16})
		if err != nil {
			if errors.Is(err, dfa.ErrStateBlowup) {
				t.AddRow(b.Name, "BLOWUP", "-", "-", f1(nfaMBs), f1(bitparMBs), "-")
				continue
			}
			return nil, err
		}
		t0 = time.Now()
		d.Run(input)
		dfaMBs := float64(len(input)) / time.Since(t0).Seconds() / 1e6

		t.AddRow(b.Name,
			fmt.Sprint(d.NumStates()),
			fmt.Sprintf("%.1f MB", float64(d.TableBytes())/1e6),
			f1(dfaMBs), f1(nfaMBs), f1(bitparMBs),
			fmt.Sprintf("%.0fx", impalaGBs*1000/dfaMBs))
	}
	t.AddNote("Impala 16-bit line rate: 10 GB/s deterministic, input-independent")
	t.AddNote("paper framing: in-memory automata accelerators are orders of magnitude beyond software; DFA tables also blow caches or explode in states")
	return []*Table{t}, nil
}
