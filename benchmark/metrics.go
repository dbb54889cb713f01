package main

import (
	"math"
	"slices"
)

// metricDef declares one metric. BENCHMARK.json repeats the names, units,
// directions and bounds; TestBenchmarkJSON keeps the two identical.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share by which an end-to-end metric may worsen before
	// -compare calls it a regression. Per-layer metrics have none.
	Bound float64
	// Exact marks a value that must repeat bit-for-bit between two runs of
	// the same seed: -compare flags any difference.
	Exact bool
}

// endToEnd lists what a user of the system pays for. failed ÷ attempted is
// reported beside them on every run (the result's attempted and failed);
// it is not listed here because the driver's contract wants metrics that
// are never 0.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "scan_ns_per_byte", Unit: "ns/B", Better: "lower", Bound: 0.20},
	{Name: "allocs_per_mb", Unit: "1/MB", Better: "lower", Bound: 0.05},
	{Name: "alloc_kb_per_mb", Unit: "KB/MB", Better: "lower", Bound: 0.10},
	{Name: "resident_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "artifact_mb", Unit: "MB", Better: "lower", Bound: 0.02, Exact: true},
	{Name: "load_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "modelled_gbps_per_mm2", Unit: "Gbps/mm2", Better: "higher", Bound: 0.001, Exact: true},
}

// perLayer lists the traced run's metrics, layer = module name. A metric
// that does not apply to a workload (cluster.* without a cluster) reads 0.
var perLayer = []metricDef{
	{Name: "client.requests", Unit: "count", Better: "higher"},
	{Name: "client.failed", Unit: "count", Better: "lower"},
	{Name: "client.samples", Unit: "count", Better: "higher"},
	{Name: "client.req_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.req_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "client.req_tail_pct", Unit: "%", Better: "higher"},
	{Name: "client.scan_mb_per_s", Unit: "MB/s", Better: "higher"},

	{Name: "http.transport_ns_per_byte", Unit: "ns/B", Better: "lower"},
	{Name: "http.resp_bytes_per_mb", Unit: "B/MB", Better: "lower"},

	{Name: "server.self_ns_per_byte", Unit: "ns/B", Better: "lower"},
	{Name: "server.self_allocs_per_req", Unit: "count", Better: "lower"},
	{Name: "server.pool_do_ns", Unit: "ns", Better: "lower"},
	{Name: "server.rejects", Unit: "count", Better: "lower", Exact: true},
	{Name: "server.stream_chunks_per_req", Unit: "count", Better: "lower"},

	{Name: "cluster.fanout_self_ns_per_byte", Unit: "ns/B", Better: "lower"},
	{Name: "cluster.worker_skew", Unit: "ratio", Better: "lower"},
	{Name: "cluster.worker_errors", Unit: "count", Better: "lower", Exact: true},

	{Name: "impala.match_self_ns_per_byte", Unit: "ns/B", Better: "lower"},
	{Name: "impala.stream_self_ns_per_byte", Unit: "ns/B", Better: "lower"},
	{Name: "impala.match_allocs_per_mb", Unit: "1/MB", Better: "lower"},
	{Name: "impala.rows_per_mb", Unit: "1/MB", Better: "higher", Exact: true},

	{Name: "sim.unpack_ns_per_byte", Unit: "ns/B", Better: "lower"},
	{Name: "sim.run_ns_per_byte", Unit: "ns/B", Better: "lower"},
	{Name: "sim.feed_ns_per_byte", Unit: "ns/B", Better: "lower"},
	{Name: "sim.run_allocs_per_mb", Unit: "1/MB", Better: "lower"},
	{Name: "sim.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.compiled_mb", Unit: "MB", Better: "lower"},
	{Name: "sim.states", Unit: "count", Better: "lower", Exact: true},
	{Name: "sim.residual_states", Unit: "count", Better: "lower", Exact: true},
	{Name: "sim.cycles_per_byte", Unit: "1/B", Better: "lower", Exact: true},
	{Name: "sim.active_per_cycle", Unit: "count", Better: "lower", Exact: true},
	{Name: "sim.enabled_per_cycle", Unit: "count", Better: "lower", Exact: true},

	{Name: "dfa.run_ns_per_byte", Unit: "ns/B", Better: "lower"},
	{Name: "dfa.unseal_ms", Unit: "ms", Better: "lower"},
	{Name: "dfa.build_ms", Unit: "ms", Better: "lower"},
	{Name: "dfa.table_mb", Unit: "MB", Better: "lower", Exact: true},
	{Name: "dfa.dfa_states", Unit: "count", Better: "lower", Exact: true},
	{Name: "dfa.dfa_state_share", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "dfa.fallback_bytes_share", Unit: "ratio", Better: "lower", Exact: true},

	{Name: "shard.run_ns_per_byte", Unit: "ns/B", Better: "lower"},
	{Name: "shard.vs_unsharded", Unit: "ratio", Better: "higher"},
	{Name: "shard.imbalance", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "shard.build_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.unseal_ms", Unit: "ms", Better: "lower"},

	{Name: "score.run_ns_per_byte", Unit: "ns/B", Better: "lower"},
	{Name: "score.vs_binary", Unit: "ratio", Better: "higher"},
	{Name: "score.scalar_state_share", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "score.reject_share", Unit: "ratio", Better: "lower", Exact: true},

	{Name: "core.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "core.vtess_ms", Unit: "ms", Better: "lower"},
	{Name: "core.states_out", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.state_overhead", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "place.place_ms", Unit: "ms", Better: "lower"},
	{Name: "espresso.cache_hit_rate", Unit: "ratio", Better: "higher"},

	{Name: "artifact.save_ms", Unit: "ms", Better: "lower"},
	{Name: "artifact.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "artifact.autm_mb", Unit: "MB", Better: "lower", Exact: true},

	{Name: "arch.model_gbps", Unit: "Gbps", Better: "higher", Exact: true},
	{Name: "arch.model_mm2", Unit: "mm2", Better: "lower", Exact: true},
	{Name: "arch.g4_units", Unit: "count", Better: "lower", Exact: true},
	{Name: "arch.bitstream_kb", Unit: "KB", Better: "lower", Exact: true},

	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.negative_selfs", Unit: "count", Better: "lower"},
}

// value is one measured metric. Samples is the number of observations behind
// an estimate (0 for a single reading).
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// metrics collects a run's values against one of the tables above.
type metrics struct {
	values map[string]value
}

func newMetrics(defs []metricDef) *metrics {
	m := &metrics{values: make(map[string]value, len(defs))}
	for _, d := range defs {
		m.values[d.Name] = value{Unit: d.Unit}
	}
	return m
}

// set records a reading; a name outside the table is a bug in the benchmark.
func (m *metrics) set(name string, v float64, samples int) {
	old, ok := m.values[name]
	if !ok {
		panic("benchmark: metric " + name + " is not declared")
	}
	m.values[name] = value{Value: v, Unit: old.Unit, Samples: samples}
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs need not be sorted. An empty sample reads 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// floors is the estimator of every timing the benchmark gates or subtracts:
// per body, the fastest ns/byte observed; the value is the lower quartile of
// those floors over the bodies. Host noise only ever adds time to a request,
// and on this host it comes in stretches of many seconds during which even
// the 10th percentile of a 10 s window moved by half (131 to 202 ns/B on one
// commit and seed) while the fastest requests stayed within a few percent. A
// body's floor is only as good as the quietest moment that body was sent in,
// so the mean of the floors still moved by 6 % between windows on the
// memory-bound workloads; the lower quartile asks that a quarter of the
// bodies caught a quiet moment, not all of them, and moved by 2 %. Floors are
// kept per body, not overall, so that a corpus whose bodies differ in cost is
// not reported by its single cheapest body.
type floors struct {
	min []float64
	n   int
}

// lower takes v as body's floor if it is below the one held; a body not yet
// seen holds +Inf.
func (f *floors) lower(body int, v float64) {
	for len(f.min) <= body {
		f.min = append(f.min, math.Inf(1))
	}
	f.min[body] = min(f.min[body], v)
}

// add counts one more sample for body.
func (f *floors) add(body int, nsPerByte float64) {
	f.lower(body, nsPerByte)
	f.n++
}

// merge folds another set of floors over the same bodies into f.
func (f *floors) merge(o floors) {
	for body, v := range o.min {
		f.lower(body, v)
	}
	f.n += o.n
}

// value is the lower quartile of the floors of the bodies that were sampled,
// 0 if none was.
func (f *floors) value() float64 {
	var sampled []float64
	for _, v := range f.min {
		if !math.IsInf(v, 1) {
			sampled = append(sampled, v)
		}
	}
	return quantile(sampled, 0.25)
}

// tail returns the highest of the usual tail percentiles that still has at
// least ten samples beyond it, and which one that was (50 when even the 90th
// has fewer).
func tail(xs []float64) (v, pct float64) {
	pct = 50
	for _, p := range []float64{90, 95, 99, 99.9} {
		if float64(len(xs))*(1-p/100) >= 10 {
			pct = p
		}
	}
	return quantile(xs, pct/100), pct
}

// ratio is a/b, or 0 when b is 0: a share of nothing reads 0, not NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
