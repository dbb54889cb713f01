package score_test

import (
	"slices"
	"testing"

	"impala/internal/automata"
	"impala/internal/bitvec"
	"impala/internal/score"
	"impala/internal/sim"
	"impala/internal/sim/simtest"
)

// This package's rows of the differential spine (simtest.Spine): the kernel
// with the score lane riding it, under all-zero weights and threshold 0 —
// every score 0, every report at the threshold — and under random weights
// and the open threshold. Either way it reports what the binary kernel
// reports, and every report carries the score the one-shot Run gives it;
// the spine compares the reports with their scores zeroed.
func TestSpine(t *testing.T) {
	var rows []simtest.Row
	for _, zero := range []bool{true, false} {
		rows = append(rows, simtest.Row{Name: map[bool]string{true: "scored, zero weights", false: "scored, random weights"}[zero],
			Build: func(t testing.TB, c *simtest.Case) (simtest.Form, bool) {
				w := automata.NewWeights(c.NFA)
				if !zero {
					w = simtest.RandomWeights(c.NFA, 1)
				}
				sc, err := score.Compile(c.NFA, w)
				if err != nil {
					t.Fatal(err)
				}
				oneShot, _ := sc.Run(c.Input)
				// A tracer turns the kernel's skip of quiescent cycles off:
				// the lane that rides a skipping kernel scores as one that
				// sees every cycle.
				traced, _ := sim.RunBatch(sc.NewEngine(), c.Input, 0, everyCycle{})
				if !slices.Equal(traced, oneShot) {
					t.Fatalf("scored on %s: with every cycle stepped %v, skipping %v", c.Name, traced, oneShot)
				}
				scores := make(map[sim.Report]float64, len(oneShot))
				for _, r := range oneShot {
					scores[binary(r)] = r.Score
				}
				check := func(r sim.Report) sim.Report {
					if want, ok := scores[binary(r)]; ok && r.Score != want || zero && r.Score != 0 {
						t.Fatalf("scored on %s: report %+v scores %g, the one-shot Run %g", c.Name, r, r.Score, want)
					}
					return binary(r)
				}
				open := func(sink sim.ReportSink) *sim.Session {
					return sc.NewSession(func(r sim.Report) { sink(check(r)) })
				}
				return simtest.SessionForm(open, func(dst []sim.Report, input []byte) ([]sim.Report, sim.Stats) {
					rs, stats := sc.AppendRun(dst, input)
					for i := len(dst); i < len(rs); i++ {
						rs[i] = check(rs[i])
					}
					return rs, stats
				}), true
			}})
	}
	simtest.Spine(t, rows...)
}

// everyCycle is a Tracer that looks at nothing: attached, the kernel steps
// every cycle.
type everyCycle struct{}

func (everyCycle) OnCycle(int, bitvec.Words, bitvec.Words) {}

// binary is r with its score zeroed: the report a binary engine makes.
func binary(r sim.Report) sim.Report {
	r.Score = 0
	return r
}
