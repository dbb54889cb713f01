// Streaming-layer observability. EnableMetrics registers the simulator's
// live counters in an obs.Registry; sessions then publish continuously with
// no change to their API. The default state is fully disabled: the hot path
// pays one atomic pointer load plus a nil check per Feed and allocates
// nothing — the AllocsPerRun pin in metrics_test.go enforces this for both
// the disabled and the enabled state.
package sim

import (
	"sync/atomic"

	"impala/internal/obs"
)

// streamMetrics is the set of instruments shared by every Session in the
// process (scalar, compiled and capsule-level machine cores alike — they
// all run through Session.Feed).
type streamMetrics struct {
	feeds    *obs.Counter // sim_feed_calls_total
	bytes    *obs.Counter // sim_bytes_fed_total
	symbols  *obs.Counter // sim_subsymbols_total
	cycles   *obs.Counter // sim_cycles_total
	reports  *obs.Counter // sim_reports_total
	flushes  *obs.Counter // sim_flushes_total
	sessions *obs.Counter // sim_sessions_opened_total
	active   *obs.Gauge   // sim_active_streams
	chunkSz  *obs.Histogram
	feedLat  *obs.Histogram
}

// streamMetricsPtr is nil when disabled; swapped atomically so streams
// already in flight observe the change safely.
var streamMetricsPtr atomic.Pointer[streamMetrics]

// EnableMetrics registers the streaming layer's instruments in reg and
// turns live publication on for every Session in the process:
//
//	sim_feed_calls_total      Feed invocations
//	sim_bytes_fed_total       whole input bytes received
//	sim_subsymbols_total      symbols handed to the cores: sub-symbols after
//	                          alphabet expansion, bytes for a core that takes
//	                          bytes (Core.Geometry) — the kernel whenever its
//	                          cycle is whole bytes, a DFA walker whose DFAs
//	                          step bytes or that steps such a kernel
//	sim_cycles_total          automaton cycles executed
//	sim_reports_total         reports emitted (the paper's match count)
//	sim_flushes_total         streams ended
//	sim_sessions_opened_total streams opened: sessions created, and
//	                          flushed sessions Reset for another stream (a
//	                          pooled core's kept session, once per Run)
//	sim_active_streams        gauge: opened minus flushed streams
//	sim_feed_chunk_bytes      histogram of Feed chunk sizes
//	sim_report_latency_ns     histogram: Feed-entry→return latency of feeds
//	                          that completed at least one match
//
// EnableMetrics(nil) disables publication again (the default). Both states
// keep Session.Feed allocation-free.
func EnableMetrics(reg *obs.Registry) {
	if reg == nil {
		streamMetricsPtr.Store(nil)
		return
	}
	streamMetricsPtr.Store(&streamMetrics{
		feeds:    reg.Counter("sim_feed_calls_total"),
		bytes:    reg.Counter("sim_bytes_fed_total"),
		symbols:  reg.Counter("sim_subsymbols_total"),
		cycles:   reg.Counter("sim_cycles_total"),
		reports:  reg.Counter("sim_reports_total"),
		flushes:  reg.Counter("sim_flushes_total"),
		sessions: reg.Counter("sim_sessions_opened_total"),
		active:   reg.Gauge("sim_active_streams"),
		chunkSz:  reg.Histogram("sim_feed_chunk_bytes", obs.ByteBuckets()),
		feedLat:  reg.Histogram("sim_report_latency_ns", obs.LatencyBuckets()),
	})
}
