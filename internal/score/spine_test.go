package score_test

import (
	"testing"

	"impala/internal/automata"
	"impala/internal/score"
	"impala/internal/sim"
	"impala/internal/sim/simtest"
)

// This package's rows of the differential spine (simtest.Spine): the kernel
// with the score lane riding it, under all-zero weights and threshold 0 —
// every score 0, every report at the threshold — and under random weights
// and the open threshold. Either way it reports what the binary kernel
// reports, and every report carries the score the one-shot Run gives it.
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
				scores := make(map[sim.Report]float64, len(oneShot))
				for _, r := range oneShot {
					scores[r.Report] = r.Score
				}
				binary := func(r score.Report) sim.Report {
					if want, ok := scores[r.Report]; ok && r.Score != want || zero && r.Score != 0 {
						t.Fatalf("scored on %s: report %+v scores %g, the one-shot Run %g", c.Name, r.Report, r.Score, want)
					}
					return r.Report
				}
				return simtest.Form{
					Open: func(sink sim.ReportSink) simtest.Stream {
						return sc.NewSession(func(r score.Report) { sink(binary(r)) })
					},
					Run: func(input []byte) ([]sim.Report, sim.Stats) {
						rs, stats := sc.Run(input)
						out := make([]sim.Report, len(rs))
						for i, r := range rs {
							out[i] = binary(r)
						}
						return out, stats
					},
				}, true
			}})
	}
	simtest.Spine(t, rows...)
}
