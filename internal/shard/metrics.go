// Shard-execution observability, mirroring the tier layer's pattern: one
// atomic pointer load plus a nil check on each run entry point, nothing in
// the per-cycle loops, fully disabled by default.
package shard

import (
	"sync/atomic"

	"impala/internal/obs"
)

// shardMetrics is the set of instruments shared by every sharded execution
// in the process.
type shardMetrics struct {
	builds  *obs.Counter // shard_builds_total
	scans   *obs.Counter // shard_scans_total
	bytes   *obs.Counter // shard_bytes_total
	reports *obs.Counter // shard_reports_total
}

// shardMetricsPtr is nil when disabled; swapped atomically so runs already
// in flight observe the change safely.
var shardMetricsPtr atomic.Pointer[shardMetrics]

// EnableMetrics registers the shard layer's instruments in reg and turns
// live publication on for every sharded execution in the process:
//
//	shard_builds_total   shard partitions planned (Partition)
//	shard_scans_total    sharded one-shot runs
//	shard_bytes_total    input bytes scanned, counted once per live shard
//	                     (the total engine work of the scans)
//	shard_reports_total  reports emitted by sharded runs
//
// EnableMetrics(nil) disables publication again (the default).
func EnableMetrics(reg *obs.Registry) {
	if reg == nil {
		shardMetricsPtr.Store(nil)
		return
	}
	shardMetricsPtr.Store(&shardMetrics{
		builds:  reg.Counter("shard_builds_total"),
		scans:   reg.Counter("shard_scans_total"),
		bytes:   reg.Counter("shard_bytes_total"),
		reports: reg.Counter("shard_reports_total"),
	})
}
