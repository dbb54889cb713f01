package simtest

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"impala/internal/obs"
	"impala/internal/sim"
)

// Form is one execution form built over one case: a stream (Open) and/or a
// one-shot (Run). A Rows form reports as the facade does, one MatchRow per
// distinct (End, Pattern); it is compared with the scalar engine's reports
// folded the same way (Fold), and its statistics, which count its own
// automaton, only with themselves.
type Form struct {
	Open   func(sink sim.ReportSink) Stream
	Run    func(input []byte) ([]sim.Report, sim.Stats)
	Rows   bool
	merged bool // see Merged
}

// SessionForm is the form of an engine with a sim.Session per stream and a
// one-shot Run.
func SessionForm(open func(sim.ReportSink) *sim.Session, run func([]byte) ([]sim.Report, sim.Stats)) Form {
	return Form{Open: func(sink sim.ReportSink) Stream { return open(sink) }, Run: run}
}

// AllocFree pins what a warm form allocates: nothing per Feed of input, with
// the session metrics (and whatever else enable turns on) off and live, and —
// when quiet is given — nothing per one-shot Run of an input that reports
// nothing. Of the one-shot it takes the fewest of 20 runs: a sync.Pool may
// drop what it was handed (under the race detector it does so at random), and
// a fresh core is not what is pinned.
func AllocFree(t *testing.T, f Form, input, quiet []byte, enable ...func(*obs.Registry)) {
	t.Helper()
	enable = append(enable, sim.EnableMetrics)
	metrics := func(reg *obs.Registry) {
		for _, on := range enable {
			on(reg)
		}
	}
	for _, reg := range []*obs.Registry{nil, obs.NewRegistry()} {
		metrics(reg)
		s := f.Open(func(sim.Report) {})
		s.Feed(input) // warm the sub-symbol scratch buffer
		avg := testing.AllocsPerRun(50, func() { s.Feed(input) })
		metrics(nil)
		if avg != 0 {
			t.Errorf("metrics live=%t: steady-state Feed allocates %.1f objects/op, want 0", reg != nil, avg)
		}
	}
	if quiet == nil {
		return
	}
	if r, _ := f.Run(quiet); len(r) != 0 {
		t.Fatalf("the quiet input reports %d times", len(r))
	}
	fewest := math.Inf(1)
	for i := 0; i < 20; i++ {
		fewest = min(fewest, testing.AllocsPerRun(1, func() { f.Run(quiet) }))
	}
	if fewest != 0 {
		t.Errorf("a Run that reports nothing allocates %.0f objects on a pooled core, want 0", fewest)
	}
}

// Row is one line of a package's spine table: a named form, built over each
// case. Build returns false when the form does not apply to the case.
type Row struct {
	Name  string
	Build func(t testing.TB, c *Case) (Form, bool)
}

// MatchRow is the report a Rows form emits for the facade match (end,
// pattern).
func MatchRow(end, pattern int) sim.Report { return sim.Report{BitPos: 8 * end, Code: pattern} }

// Fold reduces reports to the facade's rows, in (End, Pattern) order.
func Fold(reports []sim.Report) []sim.Report {
	rows := make([]sim.Report, len(reports))
	for i, r := range reports {
		rows[i] = MatchRow(r.BitPos/8, r.Code)
	}
	sim.SortReports(rows)
	return slices.Compact(rows)
}

// Merged is the form a frontend makes of workers that each host a disjoint
// part of one form: every chunk goes to each worker, their reports to the one
// sink, rows two workers both report collapse as in the frontend's merge.
// Their statistics add up (Cycles is each worker's) but for PeakActive, which
// the spine does not compare; nor does it ask for the sink calls' cycle order.
func Merged(workers ...Form) Form {
	return Form{
		Open: func(sink sim.ReportSink) Stream {
			var s mergedStream
			for _, w := range workers {
				s = append(s, w.Open(sink))
			}
			return s
		},
		Run: func(input []byte) ([]sim.Report, sim.Stats) {
			var all []sim.Report
			var stats []sim.Stats
			for _, w := range workers {
				r, st := w.Run(input)
				all, stats = append(all, r...), append(stats, st)
			}
			return all, sumStats(stats)
		},
		Rows:   workers[0].Rows,
		merged: true,
	}
}

type mergedStream []Stream

func (m mergedStream) each(f func(Stream)) {
	for _, s := range m {
		f(s)
	}
}

func (m mergedStream) Feed(chunk []byte) { m.each(func(s Stream) { s.Feed(chunk) }) }
func (m mergedStream) Flush()            { m.each(Stream.Flush) }
func (m mergedStream) Reset()            { m.each(Stream.Reset) }

func (m mergedStream) Stats() sim.Stats {
	var stats []sim.Stats
	m.each(func(s Stream) { stats = append(stats, s.Stats()) })
	return sumStats(stats)
}

// sumStats adds up the statistics of workers that each ran every cycle.
func sumStats(stats []sim.Stats) sim.Stats {
	var sum sim.Stats
	for i, st := range stats {
		st.PeakActive = 0
		if i > 0 {
			st.Cycles = 0
		}
		sum.Add(st)
	}
	return sum
}

// chunking is one way the sweep cuts a case's input into Feed calls; a dirty
// one first feeds the stream half the input and Resets it.
type chunking struct {
	name   string
	chunks [][]byte
	dirty  bool
}

// chunkings is the sweep: the whole stream after a reset mid-stream, 1-byte
// chunks, random chunks (empty ones between) of up to 9 bytes and of up to one
// and a half blocks, and on an input past two blocks a cut at every offset
// within 3 bytes of a block's end behind an odd prefix, so that on the strided
// geometries every block starts mid-cycle.
func chunkings(input []byte) []chunking {
	r := rand.New(rand.NewSource(int64(len(input))))
	block := FeedBlock()
	cuts := []chunking{{name: "the whole stream after a reset mid-stream", chunks: [][]byte{input}, dirty: true}}
	for _, most := range []int{1, 9, 3 * block / 2} {
		var chunks [][]byte
		for rest := input; len(rest) > 0; {
			if most > 1 && r.Intn(4) == 0 {
				chunks = append(chunks, nil)
			}
			n := min(len(rest), 1+r.Intn(most))
			chunks, rest = append(chunks, rest[:n]), rest[n:]
		}
		name := fmt.Sprintf("random chunks of up to %d bytes", most)
		if most == 1 {
			name = "1-byte chunks"
		}
		cuts = append(cuts, chunking{name: name, chunks: chunks})
	}
	for _, prefix := range []int{1, 3} {
		for d := -3; d <= 3 && len(input) > 2*block+16; d++ {
			cut := prefix + block + d
			name := fmt.Sprintf("a cut at %d+%d%+d", prefix, block, d)
			cuts = append(cuts, chunking{name: name, chunks: [][]byte{input[:prefix], input[prefix:cut], input[cut:]}})
		}
	}
	return cuts
}

// Spine runs every row over every case of Cases, one subtest per case, against
// the scalar engine's run of the case (newReference). Of each form:
//   - a fresh stream fed the whole input must make the reference's reports
//     (State included), its sink calls in cycle order, with the reference's
//     Stats (PeakActive included);
//   - the same stream, Reset, must make the very same sink calls and Stats
//     under every chunking of the sweep;
//   - the one-shot Run, twice (the second on what a pool kept), must return
//     the reference's reports and Stats.
//
// Rows and merged forms are compared as Form and Merged say. A failure names
// the form and the case, and ends that form's checks on that case.
func Spine(t *testing.T, rows ...Row) {
	for _, c := range Cases(t) {
		t.Run(c.Name, func(t *testing.T) {
			ref := newReference(t, c)
			for _, row := range rows {
				if f, ok := row.Build(t, c); ok {
					if err := ref.check(f); err != nil {
						t.Errorf("%s on %s: %v", row.Name, c.Name, err)
					}
				}
			}
		})
	}
}

// reference is one case's scalar run and chunking sweep.
type reference struct {
	c          *Case
	want, rows []sim.Report
	stats      sim.Stats
	cuts       []chunking
}

// newReference runs the scalar engine over the case's input without a
// sim.Session, whose carry and flush are under test too: every whole cycle in
// one StepBlock, then the zero-padded final cycle with the reports past the
// stream's end suppressed.
func newReference(t testing.TB, c *Case) *reference {
	e, err := sim.NewEngine(c.NFA)
	if err != nil {
		t.Fatal(err)
	}
	var want []sim.Report
	sink := func(r sim.Report) { want = append(want, r) }
	S := c.NFA.Stride
	subs := sim.SubSymbols(c.NFA.Bits, c.Input)
	whole := len(subs) / S * S
	enabled, active, peak := e.StepBlock(subs[:whole], 0, -1, sink, nil)
	cycles := whole / S
	if whole < len(subs) {
		last := append(slices.Clone(subs[whole:]), make([]byte, S-(len(subs)-whole))...)
		en, act, pk := e.StepBlock(last, cycles, len(subs)*c.NFA.Bits, sink, nil)
		enabled, active, peak, cycles = enabled+en, active+act, max(peak, pk), cycles+1
	}
	sim.SortReports(want)
	var stats sim.Stats // Add derives ActivePerCycleAvg
	stats.Add(sim.Stats{Cycles: cycles, TotalActive: active, TotalEnabled: enabled, PeakActive: peak, Reports: len(want)})
	return &reference{c: c, want: want, rows: Fold(want), stats: stats, cuts: chunkings(c.Input)}
}

func (ref *reference) check(f Form) error {
	for _, run := range []string{"one-shot Run", "second one-shot Run"} {
		if f.Run != nil {
			got, stats := f.Run(ref.c.Input)
			if err := ref.same(f, run, got, stats); err != nil {
				return err
			}
		}
	}
	if f.Open == nil {
		return nil
	}
	var calls []sim.Report
	s := f.Open(func(r sim.Report) { calls = append(calls, r) })
	run := func(chunks [][]byte) ([]sim.Report, sim.Stats) {
		calls = nil
		for _, chunk := range chunks {
			s.Feed(chunk)
		}
		s.Flush()
		return calls, s.Stats()
	}
	whole, stats := run([][]byte{ref.c.Input})
	if err := ref.same(f, "the whole stream", whole, stats); err != nil {
		return err
	}
	bpc := ref.c.NFA.BitsPerCycle()
	for i := 1; i < len(whole) && !f.merged; i++ {
		if (whole[i].BitPos-1)/bpc < (whole[i-1].BitPos-1)/bpc {
			return fmt.Errorf("sink call %d (%+v) is of an earlier cycle than call %d (%+v)", i, whole[i], i-1, whole[i-1])
		}
	}
	for _, cut := range ref.cuts {
		s.Reset()
		if cut.dirty {
			s.Feed(ref.c.Input[:len(ref.c.Input)/2])
			s.Reset()
		}
		got, st := run(cut.chunks)
		var err error
		switch {
		case f.merged:
			err = ref.same(f, cut.name, got, st)
		case st != stats:
			err = fmt.Errorf("%s: stats %+v, the whole stream's %+v", cut.name, st, stats)
		default:
			err = mismatch(cut.name+": sink calls", got, whole)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// same compares a run's reports, sorted, and statistics with the reference.
func (ref *reference) same(f Form, run string, got []sim.Report, stats sim.Stats) error {
	want, wantStats := ref.want, ref.stats
	got = slices.Clone(got)
	sim.SortReports(got)
	if f.merged {
		wantStats.PeakActive = 0
	}
	if f.Rows { // its statistics count its own automaton
		want, stats = ref.rows, wantStats
	}
	if f.merged && f.Rows {
		got = slices.Compact(got)
	}
	if stats != wantStats {
		return fmt.Errorf("%s: stats %+v, the scalar engine's %+v", run, stats, wantStats)
	}
	return mismatch(run+": reports", got, want)
}

// mismatch describes how got differs from want, or returns nil.
func mismatch(what string, got, want []sim.Report) error {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	if i == len(got) && i == len(want) {
		return nil
	}
	return fmt.Errorf("%s: %d, want %d; the first difference, at %d: %+v, want %+v", what, len(got), len(want), i, got[i:min(i+1, len(got))], want[i:min(i+1, len(want))])
}
