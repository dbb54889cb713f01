// Package simtest holds the differential check every execution form's tests
// share: a form stepped in blocks must not show where its blocks end.
package simtest

import (
	"fmt"
	"slices"
	"testing"

	"impala/internal/sim"
)

// Stream is the streaming side of an execution form: *sim.Session, and every
// session type that wraps one.
type Stream interface {
	Feed([]byte)
	Flush()
	Stats() sim.Stats
}

// probe is a sim.Core that only records the longest block it was handed.
type probe struct{ longest int }

func (p *probe) Geometry() (bits, stride int) { return 8, 1 }
func (p *probe) ResetState()                  {}
func (p *probe) StepBlock(subs []byte, _ int, _ int, _ sim.ReportSink, _ sim.Tracer) (int64, int64, int) {
	p.longest = max(p.longest, len(subs))
	return 0, 0, 0
}

// FeedBlock returns how many input bytes a sim.Session hands its core per
// StepBlock call, observed rather than assumed: the longest block an
// 8-bit × 1-stride core sees of one long Feed.
func FeedBlock() int {
	var p probe
	sim.NewSession(&p, nil).Feed(make([]byte, 1<<20))
	return p.longest
}

// BlockEdges checks one execution form against the whole-stream scalar
// engine's result (want, sorted, and wantStats) over input, which must be
// odd-length (so that every strided geometry ends on a zero-padded cycle) and
// span more than two blocks. open returns a fresh stream of the form emitting
// into the given sink. The form's whole-stream run must give want and
// wantStats, with its sink calls in non-decreasing cycle order; and fed in
// 1-byte chunks, or cut at every offset within 3 bytes of a block's end behind
// an odd prefix, it must make the same sink calls in the same sequence and
// report the same statistics, PeakActive included.
func BlockEdges(t testing.TB, form string, bitsPerCycle int, open func(sim.ReportSink) Stream, input []byte, want []sim.Report, wantStats sim.Stats) {
	t.Helper()
	block := FeedBlock()
	if len(input)%2 == 0 || len(input) < 2*block+16 {
		t.Fatalf("%s: %d input bytes; the check needs an odd length past two %d-byte blocks", form, len(input), block)
	}
	run := func(chunks [][]byte) ([]sim.Report, sim.Stats) {
		var calls []sim.Report
		s := open(func(r sim.Report) { calls = append(calls, r) })
		for _, chunk := range chunks {
			s.Feed(chunk)
		}
		s.Flush()
		return calls, s.Stats()
	}

	whole, stats := run([][]byte{input})
	sorted := slices.Clone(whole)
	sim.SortReports(sorted)
	if !slices.Equal(sorted, want) {
		t.Fatalf("%s: %d reports over the whole stream, the scalar engine has %d (or they differ)", form, len(sorted), len(want))
	}
	if stats != wantStats {
		t.Fatalf("%s: stats %+v over the whole stream, the scalar engine has %+v", form, stats, wantStats)
	}
	for i := 1; i < len(whole); i++ {
		if (whole[i].BitPos-1)/bitsPerCycle < (whole[i-1].BitPos-1)/bitsPerCycle {
			t.Fatalf("%s: sink call %d (%+v) is of an earlier cycle than call %d (%+v)", form, i, whole[i], i-1, whole[i-1])
		}
	}

	bytewise := make([][]byte, len(input))
	for i := range input {
		bytewise[i] = input[i : i+1]
	}
	chunkings := map[string][][]byte{"1-byte chunks": bytewise}
	for _, prefix := range []int{1, 3} {
		for d := -3; d <= 3; d++ {
			cut := prefix + block + d
			chunkings[fmt.Sprintf("cut at %d+%d%+d", prefix, block, d)] = [][]byte{input[:prefix], input[prefix:cut], input[cut:]}
		}
	}
	for name, chunks := range chunkings {
		calls, stats := run(chunks)
		if !slices.Equal(calls, whole) {
			t.Fatalf("%s, %s: %d sink calls, the whole stream made %d (or another sequence)", form, name, len(calls), len(whole))
		}
		if stats != wantStats {
			t.Fatalf("%s, %s: stats %+v, whole stream %+v", form, name, stats, wantStats)
		}
	}
}
