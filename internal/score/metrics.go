// Scored-execution observability, following the streaming layer's pattern:
// one atomic pointer, nil when disabled, drained at block boundaries — never
// inside the cycle loop.
package score

import (
	"sync/atomic"

	"impala/internal/obs"
)

// scoreMetrics is the set of instruments shared by every scored engine in
// the process.
type scoreMetrics struct {
	bytes   *obs.Counter // score_scored_bytes_total
	reports *obs.Counter // score_reports_total
	rejects *obs.Counter // score_threshold_rejects_total
}

// scoreMetricsPtr is nil when disabled; swapped atomically so engines in
// flight observe the change safely.
var scoreMetricsPtr atomic.Pointer[scoreMetrics]

// EnableMetrics registers the scored layer's instruments in reg and turns
// live publication on for every scored engine in the process:
//
//	score_scored_bytes_total      input bytes executed with scoring
//	score_reports_total           reports that cleared the threshold
//	score_threshold_rejects_total reports the threshold gate suppressed
//
// A threshold-dead state is pruned before Compile (core.Compile's
// threshold-prune stage), so its would-be reports are never formed: the gate
// neither forwards nor counts them, and rejects count only live states'
// reports that scored below the threshold on the input.
//
// EnableMetrics(nil) disables publication again (the default).
func EnableMetrics(reg *obs.Registry) {
	if reg == nil {
		scoreMetricsPtr.Store(nil)
		return
	}
	scoreMetricsPtr.Store(&scoreMetrics{
		bytes:   reg.Counter("score_scored_bytes_total"),
		reports: reg.Counter("score_reports_total"),
		rejects: reg.Counter("score_threshold_rejects_total"),
	})
}

// publish accounts a block of subs sub-symbols from cycle t0 and drains the
// block's report counts. The block's bytes are its whole cycles' or, on the
// zero-padded final cycle (limitBits >= 0), those up to the stream's true
// end; a session hands its core whole bytes per block, so a stream's bytes
// are counted once however it was chunked. One nil-check — the disabled
// state costs nothing.
func (e *Engine) publish(t0, subs, limitBits int) {
	if m := scoreMetricsPtr.Load(); m != nil {
		bits, stride := e.kernel.Geometry()
		n := subs * bits
		if limitBits >= 0 {
			n = limitBits - t0*stride*bits
		}
		m.bytes.Add(int64(n / 8))
		if e.scored > 0 {
			m.reports.Add(e.scored)
		}
		if e.rejects > 0 {
			m.rejects.Add(e.rejects)
		}
	}
	e.rejects, e.scored = 0, 0
}
