// Tier-execution observability. EnableMetrics registers the hybrid tier's
// live counters in an obs.Registry; tiered runs then publish continuously
// with no change to their API. The default state is fully disabled: each
// run entry point pays one atomic pointer load plus a nil check and the
// hot per-cycle loops are never instrumented.
package dfa

import (
	"sync/atomic"

	"impala/internal/obs"
)

// tierMetrics is the set of instruments shared by every tiered execution
// in the process.
type tierMetrics struct {
	dfaBytes  *obs.Counter // dfa_tier_bytes_total
	nfaBytes  *obs.Counter // nfa_tier_bytes_total
	reports   *obs.Counter // tier_reports_total
	fallbacks *obs.Counter // tier_fallbacks_total
	rewalked  *obs.Counter // dfa_rewalk_cycles_total
}

// tierMetricsPtr is nil when disabled; swapped atomically so runs already
// in flight observe the change safely.
var tierMetricsPtr atomic.Pointer[tierMetrics]

// EnableMetrics registers the tier layer's instruments in reg and turns
// live publication on for every tiered execution in the process:
//
//	dfa_tier_bytes_total     input bytes scanned by the DFA fast-path tier
//	nfa_tier_bytes_total     input bytes scanned by the bit-parallel NFA tier
//	tier_reports_total       reports emitted by tiered runs
//	tier_fallbacks_total     fallback activations: components demoted to the
//	                         NFA tier at plan time (blowup or eviction)
//	dfa_rewalk_cycles_total  cycles the DFA walker walked again after a
//	                         guessed segment missed at its seam, added once
//	                         per block, never inside the walk
//
// EnableMetrics(nil) disables publication again (the default).
func EnableMetrics(reg *obs.Registry) {
	if reg == nil {
		tierMetricsPtr.Store(nil)
		return
	}
	tierMetricsPtr.Store(&tierMetrics{
		dfaBytes:  reg.Counter("dfa_tier_bytes_total"),
		nfaBytes:  reg.Counter("nfa_tier_bytes_total"),
		reports:   reg.Counter("tier_reports_total"),
		fallbacks: reg.Counter("tier_fallbacks_total"),
		rewalked:  reg.Counter("dfa_rewalk_cycles_total"),
	})
}
