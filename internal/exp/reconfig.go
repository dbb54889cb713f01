package exp

import (
	"fmt"

	"impala/internal/arch"
	"impala/internal/core"
)

// Reconfiguration quantifies the paper's density argument: when a rule set
// exceeds one hardware unit, it is partitioned into rounds and the input is
// re-streamed per round, so effective throughput is line rate divided by
// rounds (plus configuration overhead). Impala's denser design needs fewer
// rounds at the same silicon budget than CA despite its transformation
// overhead.
func Reconfiguration(o Options) ([]*Table, error) {
	o = o.withDefaults()
	const inputMB = 10
	inputBytes := inputMB << 20

	imp := arch.ReconfigModel{
		Design: arch.Design{Arch: arch.Impala, Bits: 4, Stride: 4},
		Unit:   arch.StandardUnit(arch.Design{Arch: arch.Impala, Bits: 4, Stride: 4}),
	}
	ca := arch.ReconfigModel{
		Design: arch.Design{Arch: arch.CacheAutomaton, Bits: 8, Stride: 1},
		Unit:   arch.StandardUnit(arch.Design{Arch: arch.CacheAutomaton, Bits: 8, Stride: 1}),
	}

	sweep := &Table{
		Title: fmt.Sprintf("Reconfiguration rounds: effective throughput on a %d MB input (32K-state units)", inputMB),
		Header: []string{"workload states (8-bit)", "Impala16 rounds", "Impala16 eff Gbps",
			"CA8 rounds", "CA8 eff Gbps", "Imp/CA"},
	}
	// Impala pays its V-TeSS state overhead; use the suite-wide 4-stride
	// average measured by Table 4 (~1.6x).
	const impalaOverhead = 1.6
	for _, states := range []int{8 << 10, 32 << 10, 128 << 10, 512 << 10, 2 << 20} {
		ri := imp.Evaluate(int(float64(states)*impalaOverhead), inputBytes)
		rc := ca.Evaluate(states, inputBytes)
		sweep.AddRow(fmt.Sprint(states),
			fmt.Sprint(ri.Rounds), f1(ri.EffectiveGbps),
			fmt.Sprint(rc.Rounds), f1(rc.EffectiveGbps),
			f2(ri.EffectiveGbps/rc.EffectiveGbps))
	}
	sweep.AddNote("line rates: Impala16 80 Gbps, CA8 28.9 Gbps; rounds = ceil(states x overhead / 32K)")
	sweep.AddNote("paper: density 'results in fewer rounds of reconfiguration, and improves the overall utilization and performance'")

	per := &Table{
		Title:  "Reconfiguration rounds per benchmark (full-size projection, 4-stride)",
		Header: []string{"benchmark", "orig states", "Impala16 states", "rounds", "eff Gbps", "CA8 rounds", "CA8 eff Gbps"},
	}
	suite, err := o.suite()
	if err != nil {
		return nil, err
	}
	for _, b := range suite {
		n, err := o.generate(b)
		if err != nil {
			return nil, err
		}
		res, err := core.Compile(n, core.Config{TargetBits: 4, StrideDims: 4})
		if err != nil {
			return nil, err
		}
		fullOrig := int(float64(n.NumStates()) / o.Scale)
		fullImp := int(float64(res.NFA.NumStates()) / o.Scale)
		ri := imp.Evaluate(fullImp, inputBytes)
		rc := ca.Evaluate(fullOrig, inputBytes)
		per.AddRow(b.Name, fmt.Sprint(fullOrig), fmt.Sprint(fullImp),
			fmt.Sprint(ri.Rounds), f1(ri.EffectiveGbps),
			fmt.Sprint(rc.Rounds), f1(rc.EffectiveGbps))
	}
	return []*Table{sweep, per}, nil
}
