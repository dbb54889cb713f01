package simtest

import (
	"slices"
	"strings"
	"testing"

	"impala/internal/sim"
)

// The spine bites: the scalar engine as a form passes every check — as
// itself, as its own one worker and folded to rows — and a form with one
// defect fails, in the run that shows it.
func TestSpineBites(t *testing.T) {
	cases := Cases(t)
	c := cases[slices.IndexFunc(cases, func(c *Case) bool { return c.Name == "regex 4-bit x 4" })]
	ref := newReference(t, c)
	if len(ref.want) < 100 || len(ref.cuts) < 10 {
		t.Fatalf("%d reports, %d chunkings: the case pins little", len(ref.want), len(ref.cuts))
	}
	engine := func() *sim.Engine {
		e, err := sim.NewEngine(c.NFA)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	open := func(sink sim.ReportSink) *sim.Session { return sim.NewSession(engine(), sink) }
	run := func(in []byte) ([]sim.Report, sim.Stats) { return engine().Run(in, nil) }
	scalar := Form{Open: func(sink sim.ReportSink) Stream { return open(sink) }, Run: run}
	rows := Form{Run: func(in []byte) ([]sim.Report, sim.Stats) { r, _ := run(in); return Fold(r), sim.Stats{} }, Rows: true}
	last := ref.want[len(ref.want)-1]
	for _, tc := range []struct {
		defect, shows string
		form          Form
	}{
		{"", "", scalar},
		{"", "", Merged(scalar)},
		{"", "", rows},
		{"drops its last report", "the whole stream: reports", Form{Open: func(sink sim.ReportSink) Stream {
			return open(func(r sim.Report) {
				if r != last {
					sink(r)
				}
			})
		}}},
		{"overstates PeakActive", "one-shot Run: stats", Form{Run: func(in []byte) ([]sim.Report, sim.Stats) {
			r, st := run(in)
			st.PeakActive++
			return r, st
		}}},
		{"reports only once the stream is whole", "1-byte chunks: sink calls", Form{Open: func(sink sim.ReportSink) Stream {
			var s *sim.Session
			s = open(func(r sim.Report) {
				if s.BytesFed() == int64(len(c.Input)) {
					sink(r)
				}
			})
			return s
		}}},
		{"drops its first report one-shot", "one-shot Run: reports", Form{Run: func(in []byte) ([]sim.Report, sim.Stats) {
			r, st := run(in)
			return r[1:], st
		}}},
		{"hosts one worker twice", "one-shot Run: stats", Merged(scalar, scalar)},
		{"repeats a row", "one-shot Run: reports", Form{Run: func(in []byte) ([]sim.Report, sim.Stats) {
			r, _ := rows.Run(in)
			return append(r, r[0]), sim.Stats{}
		}, Rows: true}},
	} {
		err := ref.check(tc.form)
		if tc.defect == "" && err != nil {
			t.Errorf("the scalar engine fails the spine: %v", err)
		}
		if tc.defect != "" && (err == nil || !strings.Contains(err.Error(), tc.shows)) {
			t.Errorf("a form that %s: %v, want a failure showing %q", tc.defect, err, tc.shows)
		}
	}
}
