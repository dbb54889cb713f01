package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"impala"
	"impala/internal/artifact"
	"impala/internal/core"
	"impala/internal/dfa"
	"impala/internal/obs"
	"impala/internal/par"
	"impala/internal/place"
	"impala/internal/score"
	"impala/internal/shard"
	"impala/internal/sim"
)

// The traced run attributes a request's time to the repo's modules from
// outside. Every mounted handler is wrapped in a span recorder, which gives
// real nested spans client → [frontend →] server handler. What happens inside
// a handler cannot be intercepted from here, so the same bodies are replayed
// in-process through the facade call the handler makes, through the engine
// rebuilt from the artifact's public parts, and through the sub-symbol
// unpack; those are the replayed child spans. A layer's self time is its
// span minus its child's, so the ledger telescopes to the client span.
//
// Everything that is compared is measured in one loop: per body, an untraced
// and a traced request, then every replayed call in a shuffled order. A
// noisy stretch of the host then slows one sample of each quantity instead
// of every sample of one, and the low quantiles that are subtracted from each
// other come from the same stretches of time.

// span is one recorded handler invocation.
type span struct {
	Name       string
	ID         string // the traced request it belongs to ("" = a worker leg)
	Start, End time.Time
}

// clientSpan is the root span of one traced request.
type clientSpan struct {
	Body  int
	Start time.Time
	Lat   time.Duration
}

// recorder wraps handlers and, while on, records a span per request.
type recorder struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func (r *recorder) wrap(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() {
			h.ServeHTTP(w, req)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, req)
		end := time.Now()
		r.mu.Lock()
		r.spans = append(r.spans, span{Name: name, ID: req.Header.Get(reqHeader), Start: start, End: end})
		r.mu.Unlock()
	})
}

// ledgerLine is one layer's self time along the steps that block a request.
type ledgerLine struct {
	Layer         string  `json:"layer"`
	SelfNsPerByte float64 `json:"self_ns_per_byte"`
	Share         float64 `json:"share"`
}

// selfResolution is the share of the client span below which a self time is
// indistinguishable from zero: a self is a difference of two separately
// measured low quantiles, and where a layer adds next to nothing (the facade
// on sparse hits) the sign of that difference is noise. trace.negative_selfs
// counts the selfs below minus this share; the ledger prints every self as
// measured, never clamped.
const selfResolution = 0.03

// maxTraceRequests bounds the requests written to the Chrome trace file; the
// metrics use every sample.
const maxTraceRequests = 1000

// Chrome trace lanes.
const (
	laneClient = 0
	laneOuter  = 1 // frontend, or the single server
	laneWorker = 2 // first worker; further workers follow
	laneReplay = 10
)

// call is one in-process call to replay: what it runs, its ns/byte floors
// and its allocations per payload MB.
type call struct {
	name        string
	fn          func(data []byte)
	Floor       floors
	AllocsPerMB float64
}

// replayer times in-process calls over a corpus.
type replayer struct {
	bodies []body
	trace  *obs.Trace
	calls  []*call
	rng    *rand.Rand
}

// add registers a call to be replayed on every body.
func (rp *replayer) add(name string, fn func(data []byte)) {
	rp.calls = append(rp.calls, &call{name: name, fn: fn})
}

// get returns the call registered under name, or an empty one (floor 0, no
// samples) when the workload has no such call.
func (rp *replayer) get(name string) *call {
	for _, c := range rp.calls {
		if c.name == name {
			return c
		}
	}
	return &call{}
}

func (rp *replayer) time1(c *call, i int) (time.Time, time.Duration) {
	data := rp.bodies[i].Data
	t0 := time.Now()
	c.fn(data)
	d := time.Since(t0)
	c.Floor.add(i, float64(d.Nanoseconds())/float64(len(data)))
	return t0, d
}

// alone runs each call by itself once over the corpus, counting its
// allocations and recording its replay spans.
func (rp *replayer) alone() {
	for _, c := range rp.calls {
		var payload int
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for i := range rp.bodies {
			t0, d := rp.time1(c, i)
			rp.trace.Event(c.name, laneReplay, t0, d, map[string]any{"replay": true, "body": i})
			payload += len(rp.bodies[i].Data)
		}
		runtime.ReadMemStats(&ms1)
		c.AllocsPerMB = float64(ms1.Mallocs-ms0.Mallocs) / (float64(payload) / 1e6)
	}
}

// each times every call once on body i, in a fresh random order so that no
// call always runs on what its predecessor left in the caches.
func (rp *replayer) each(i int) {
	rp.rng.Shuffle(len(rp.calls), func(a, b int) { rp.calls[a], rp.calls[b] = rp.calls[b], rp.calls[a] })
	for _, c := range rp.calls {
		rp.time1(c, i)
	}
}

// feedChunks feeds data in streamChunk pieces, the way /stream delivers it.
func feedChunks(feed func([]byte), data []byte) {
	for len(data) > 0 {
		n := min(len(data), streamChunk)
		feed(data[:n])
		data = data[n:]
	}
}

// bindEngineMetrics points every engine package's process-wide instruments
// at reg; nil turns them off again.
func bindEngineMetrics(reg *obs.Registry) {
	sim.EnableMetrics(reg)
	dfa.EnableMetrics(reg)
	shard.EnableMetrics(reg)
	score.EnableMetrics(reg)
}

// watched are the counters read at the boundaries of traced requests.
var watched = []string{
	"serve_rejected_total", "serve_stream_requests_total", "cluster_worker_errors_total",
	"nfa_tier_bytes_total", "dfa_tier_bytes_total",
	"score_threshold_rejects_total", "score_reports_total",
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// timed runs fn and returns how long it took in milliseconds.
func timed(fn func() error) (float64, error) {
	t0 := time.Now()
	err := fn()
	return ms(time.Since(t0)), err
}

// runTraced measures the per-layer metrics: one set-up with every
// EnableMetrics bound to a private registry, a warm-up, then the measuring
// loop described at the top of this file.
func runTraced(s spec, o options) (*result, error) {
	src, err := s.source()
	if err != nil {
		return nil, err
	}
	bodies, err := s.corpus(src, o.Seed)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: s.Name, Traced: true}
	m := newMetrics(perLayer)

	reg := obs.NewRegistry()
	bindEngineMetrics(reg)
	defer bindEngineMetrics(nil)
	rec := &recorder{}
	wrap := rec.wrap
	if o.Wrap != nil {
		wrap = func(name string, h http.Handler) http.Handler { return rec.wrap(name, o.Wrap(name, h)) }
	}
	d, err := deploy(s, reg, wrap)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	// One client throughout: spans of concurrent requests would overlap, and
	// the traced requests must match the untraced ones they are compared to.
	c := newClient(d, s, 1)
	defer c.Close()
	res.count(c.drive(bodies, 1, o.Warmup))

	// ---- the engines, rebuilt from the artifact's public parts, and the
	// calls to replay on them. On the cluster the request waits for the
	// slower worker, so each worker's machine and shard subset is replayed
	// and the ledger later follows the slower one.
	a := d.Decoded
	info, err := artifact.Stat(bytes.NewReader(d.Sealed))
	if err != nil {
		return nil, err
	}
	stage := func(name string) float64 {
		for _, st := range a.Stages {
			if st.Name == name {
				return ms(st.Duration)
			}
		}
		return 0
	}
	tr := obs.NewTrace()
	rp := &replayer{bodies: bodies, trace: tr, rng: rand.New(rand.NewSource(o.Seed))}
	bodyBytes := float64(s.BodyBytes)

	for name, machine := range d.Machines {
		switch {
		case s.Stream:
			rp.add("facade:"+name, func(data []byte) {
				st := machine.NewStream(func(impala.Match) {})
				feedChunks(st.Feed, data)
				st.Flush()
			})
		case a.Score != nil:
			rp.add("facade:"+name, func(data []byte) { _, _ = machine.MatchScored(data) }) // scored machine: no error
		default:
			rp.add("facade:"+name, func(data []byte) { machine.Match(data) })
		}
		// The handler called in-process, for the allocations it adds to the
		// facade call's.
		h := d.Handlers[name]
		rp.add("handler:"+name, func(data []byte) {
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, d.URL, &chunkReader{rest: data}))
		})
	}

	var simc *sim.Compiled
	heap0 := heapAlloc()
	compileMS, err := timed(func() (err error) { simc, err = sim.Compile(a.NFA); return })
	if err != nil {
		return nil, err
	}
	m.set("sim.compile_ms", compileMS, 0)
	m.set("sim.compiled_mb", float64(heapAlloc()-heap0)/1e6, 0)
	m.set("sim.states", float64(a.NFA.NumStates()), 0)
	m.set("sim.residual_states", float64(simc.ResidualStates()), 0)
	var stats sim.Stats
	for _, b := range bodies {
		_, st := simc.Run(b.Data)
		stats.Add(st)
	}
	m.set("sim.cycles_per_byte", ratio(float64(stats.Cycles), float64(len(bodies))*bodyBytes), 0)
	m.set("sim.active_per_cycle", ratio(float64(stats.TotalActive), float64(stats.Cycles)), 0)
	m.set("sim.enabled_per_cycle", ratio(float64(stats.TotalEnabled), float64(stats.Cycles)), 0)
	rp.add("sim.Run", func(data []byte) { simc.Run(data) })
	rp.add("sim.Session", func(data []byte) {
		sess := simc.NewSession(func(sim.Report) {})
		feedChunks(sess.Feed, data)
		sess.Flush()
	})
	var subs []byte
	rp.add("sim.AppendSubSymbols", func(data []byte) { subs = sim.AppendSubSymbols(subs[:0], a.NFA.Bits, data) })

	// engineOf names the replayed call that stands for the engine inside a
	// mount's handler.
	engineOf := func(string) string { return "sim.Run" }
	if s.Stream {
		engineOf = func(string) string { return "sim.Session" }
	}
	if a.Tier != nil {
		var tiered *dfa.Tiered
		unsealMS, err := timed(func() (err error) { tiered, err = dfa.Unseal(a.NFA, a.Tier); return })
		if err != nil {
			return nil, err
		}
		plan := tiered.Plan()
		m.set("dfa.unseal_ms", unsealMS, 0)
		m.set("dfa.build_ms", stage("tier-select"), 0)
		m.set("dfa.table_mb", float64(info.Sections["DFAT"])/1e6, 0)
		m.set("dfa.dfa_states", float64(plan.DFAStates), 0)
		m.set("dfa.dfa_state_share", ratio(float64(plan.DFANFAStates), float64(plan.DFANFAStates+plan.NFAStates)), 0)
		rp.add("dfa.Run", func(data []byte) { tiered.Run(data) })
		engineOf = func(string) string { return "dfa.Run" }
	}
	if a.Shards != nil {
		var sharded *shard.Sharded
		unsealMS, err := timed(func() (err error) { sharded, err = shard.Unseal(a.NFA, a.Shards); return })
		if err != nil {
			return nil, err
		}
		// The unsharded baseline is the same automaton tiered in one piece.
		whole, err := dfa.BuildTiered(a.NFA, dfa.TierOptions{})
		if err != nil {
			return nil, err
		}
		plan := sharded.Plan()
		m.set("shard.imbalance", ratio(float64(plan.MaxStates()), float64(plan.MinStates())), 0)
		m.set("shard.build_ms", stage("shard-plan"), 0)
		m.set("shard.unseal_ms", unsealMS, 0)
		m.set("dfa.dfa_states", float64(sharded.DFAStates()), 0)
		m.set("dfa.dfa_state_share", 1-ratio(float64(sharded.NFATierStates()), float64(a.NFA.NumStates())), 0)
		rp.add("shard.Run", func(data []byte) { sharded.Run(data) })
		rp.add("dfa.Run", func(data []byte) { whole.Run(data) })
		for name := range d.Machines {
			dom := strings.TrimPrefix(name, "worker:")
			part, err := shard.UnsealShards(a.NFA, a.Shards, a.Topo.ShardsIn(a.Topo.Topology.DomainIndex(dom)))
			if err != nil {
				return nil, err
			}
			rp.add("shard.Run:"+name, func(data []byte) { part.Run(data) })
		}
		engineOf = func(name string) string { return "shard.Run:" + name }
	}
	if a.Score != nil {
		scored, err := score.Compile(a.NFA, a.Score)
		if err != nil {
			return nil, err
		}
		m.set("score.scalar_state_share", ratio(float64(scored.ScalarScoredStates()), float64(a.NFA.NumStates())), 0)
		rp.add("score.Run", func(data []byte) { scored.Run(data) })
		engineOf = func(string) string { return "score.Run" }
	}
	rp.alone()

	// ---- the measuring loop.
	counters := make([]*obs.Counter, len(watched))
	for i, name := range watched {
		counters[i] = reg.Counter(name)
	}
	chunkHist := reg.Histogram("serve_stream_chunk_bytes", obs.ByteBuckets())
	gained := map[string]float64{}
	before := make([]int64, len(counters)+1) // the counters, then the chunk histogram's count
	var untraced, traced load
	clientSpans := map[string]clientSpan{}
	var reply bytes.Buffer
	began := time.Now()
	for i := 0; time.Since(began) < o.Window*8/10; i++ {
		at := i % len(bodies)
		b := &bodies[at]
		plain := func() {
			lat, n, err := c.do(b, "", &reply)
			untraced.record(at, b, lat, n, err)
		}
		// Whichever request comes first meets the caches as the replays left
		// them, so the two take turns.
		if i%2 == 0 {
			plain()
		}
		// The counters are read around the traced requests of the first pass
		// over the corpus, each body once, so that what they gained repeats
		// exactly however many requests the window then holds.
		counted := i < len(bodies)
		if counted {
			for k, ctr := range counters {
				before[k] = ctr.Value()
			}
			before[len(counters)] = chunkHist.Count()
		}
		id := strconv.Itoa(i)
		rec.on.Store(true)
		t0 := time.Now()
		lat, n, err := c.do(b, id, &reply)
		rec.on.Store(false)
		traced.record(at, b, lat, n, err)
		if err == nil {
			clientSpans[id] = clientSpan{at, t0, lat}
		}
		if counted {
			for k, ctr := range counters {
				gained[watched[k]] += float64(ctr.Value() - before[k])
			}
			gained["stream_chunks"] += float64(chunkHist.Count() - before[len(counters)])
		}
		if i%2 == 1 {
			plain()
		}

		rp.each(at)
	}
	res.count(untraced)
	res.count(traced)

	// ---- client: context for scan_ns_per_byte, from the untraced requests.
	n := len(untraced.LatMS)
	tailMS, pct := tail(untraced.LatMS)
	busy := 0.0
	for _, l := range untraced.LatMS {
		busy += l / 1e3
	}
	m.set("client.requests", float64(res.Attempted), 0)
	m.set("client.failed", float64(res.Failed), 0)
	m.set("client.samples", float64(n), 0)
	m.set("client.req_p50_ms", quantile(untraced.LatMS, 0.5), n)
	m.set("client.req_tail_ms", tailMS, n)
	m.set("client.req_tail_pct", pct, n)
	m.set("client.scan_mb_per_s", ratio(float64(untraced.PayloadBytes)/1e6, busy), n)

	// ---- real spans: per traced request, the client span and each
	// handler's. Worker legs carry no identifier; they belong to the
	// frontend span that contains them in time.
	perByte := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / bodyBytes }
	outer := "server"
	if s.Cluster {
		outer = "frontend"
	}
	var clientNs, outerNs floors
	var skew []float64
	workerNs := map[string]*floors{}
	lanes := map[string]int{}
	legs := map[string]span{}
	rec.mu.Lock() // a /stream handler may still be returning after its last flush
	spans := rec.spans
	rec.mu.Unlock()
	for _, sp := range spans { // in the order the handlers returned
		if sp.Name != outer {
			legs[sp.Name] = sp
			continue
		}
		cs, ok := clientSpans[sp.ID]
		if !ok {
			clear(legs) // the request failed verification: no sample
			continue
		}
		draw := clientNs.n < maxTraceRequests
		clientNs.add(cs.Body, perByte(cs.Lat))
		outerNs.add(cs.Body, perByte(sp.End.Sub(sp.Start)))
		if draw {
			tr.Event("client", laneClient, cs.Start, cs.Lat, map[string]any{"req": sp.ID})
			tr.Event(outer, laneOuter, sp.Start, sp.End.Sub(sp.Start), map[string]any{"req": sp.ID, "parent": "client"})
		}
		slow, fast := time.Duration(0), time.Duration(1<<62)
		for name, leg := range legs {
			if leg.Start.Before(sp.Start) || leg.End.After(sp.End) {
				continue
			}
			dur := leg.End.Sub(leg.Start)
			if workerNs[name] == nil {
				workerNs[name] = &floors{}
			}
			workerNs[name].add(cs.Body, perByte(dur))
			slow, fast = max(slow, dur), min(fast, dur)
			if _, ok := lanes[name]; !ok {
				lanes[name] = laneWorker + len(lanes)
			}
			if draw {
				tr.Event(name, lanes[name], leg.Start, dur, map[string]any{"req": sp.ID, "parent": outer})
			}
		}
		if len(legs) > 1 {
			skew = append(skew, ratio(float64(slow), float64(fast)))
		}
		clear(legs)
	}

	// ---- the replayed calls.
	for metric, call := range map[string]string{
		"sim.run_ns_per_byte":    "sim.Run",
		"sim.feed_ns_per_byte":   "sim.Session",
		"sim.unpack_ns_per_byte": "sim.AppendSubSymbols",
		"dfa.run_ns_per_byte":    "dfa.Run",
		"shard.run_ns_per_byte":  "shard.Run",
		"score.run_ns_per_byte":  "score.Run",
	} {
		c := rp.get(call)
		m.set(metric, c.Floor.value(), c.Floor.n)
	}
	simRun := rp.get("sim.Run")
	m.set("shard.vs_unsharded", ratio(rp.get("dfa.Run").Floor.value(), rp.get("shard.Run").Floor.value()), simRun.Floor.n)
	m.set("score.vs_binary", ratio(simRun.Floor.value(), rp.get("score.Run").Floor.value()), simRun.Floor.n)
	m.set("sim.run_allocs_per_mb", simRun.AllocsPerMB, len(bodies))
	wantRows := 0
	for _, b := range bodies {
		wantRows += len(b.Want)
	}
	m.set("impala.rows_per_mb", ratio(float64(wantRows), float64(len(bodies))*bodyBytes/1e6), 0)

	// ---- the ledger: low quantiles of nested spans, each minus its child.
	serving := "server"
	for name, ns := range workerNs {
		if serving == "server" || ns.value() > workerNs[serving].value() {
			serving = name
		}
	}
	type link struct {
		layer string
		ns    float64
	}
	chain := []link{{"http", clientNs.value()}}
	if s.Cluster {
		chain = append(chain, link{"cluster", outerNs.value()}, link{"server", workerNs[serving].value()})
	} else {
		chain = append(chain, link{"server", outerNs.value()})
	}
	facade := rp.get("facade:" + serving)
	chain = append(chain,
		link{"impala", facade.Floor.value()},
		link{s.Engine, rp.get(engineOf(serving)).Floor.value()},
		link{"sim.unpack", rp.get("sim.AppendSubSymbols").Floor.value()})
	negative := 0
	self := map[string]float64{}
	for i, l := range chain {
		ns := l.ns
		if i+1 < len(chain) {
			ns -= chain[i+1].ns
		}
		if ns < -selfResolution*chain[0].ns {
			negative++
		}
		self[l.layer] = ns
		res.Ledger = append(res.Ledger, ledgerLine{Layer: l.layer, SelfNsPerByte: ns, Share: ratio(ns, chain[0].ns)})
	}
	m.set("http.transport_ns_per_byte", self["http"], clientNs.n)
	m.set("http.resp_bytes_per_mb", ratio(float64(traced.ReplyBytes), float64(traced.PayloadBytes)/1e6), clientNs.n)
	m.set("cluster.fanout_self_ns_per_byte", self["cluster"], clientNs.n)
	m.set("cluster.worker_skew", quantile(skew, 0.5), len(skew))
	m.set("cluster.worker_errors", gained["cluster_worker_errors_total"], 0)
	m.set("server.self_ns_per_byte", self["server"], clientNs.n)
	if s.Stream {
		m.set("impala.stream_self_ns_per_byte", self["impala"], facade.Floor.n)
	} else {
		m.set("impala.match_self_ns_per_byte", self["impala"], facade.Floor.n)
	}
	m.set("impala.match_allocs_per_mb", facade.AllocsPerMB, len(bodies))
	m.set("server.self_allocs_per_req", (rp.get("handler:"+serving).AllocsPerMB-facade.AllocsPerMB)*bodyBytes/1e6, len(bodies))
	m.set("trace.negative_selfs", float64(negative), 0)
	m.set("trace.overhead_share", ratio(traced.Floor.value(), untraced.Floor.value())-1, traced.Floor.n)

	// ---- server, dfa, score: what their counters saw during the traced
	// requests, and the admission queue's fixed price.
	pool := par.NewPool(0, 64)
	doNS, doCalls := poolDoNS(pool.Do)
	pool.Close()
	m.set("server.pool_do_ns", doNS, doCalls)
	m.set("server.rejects", gained["serve_rejected_total"], 0)
	m.set("server.stream_chunks_per_req", ratio(gained["stream_chunks"], gained["serve_stream_requests_total"]), 0)
	m.set("dfa.fallback_bytes_share", ratio(gained["nfa_tier_bytes_total"], gained["nfa_tier_bytes_total"]+gained["dfa_tier_bytes_total"]), 0)
	m.set("score.reject_share", ratio(gained["score_threshold_rejects_total"], gained["score_threshold_rejects_total"]+gained["score_reports_total"]), 0)

	// ---- compile-side layers, each timed through its public entry point.
	var compiled *core.Result
	coreMS, err := timed(func() (err error) {
		compiled, err = core.Compile(src.NFA, core.Config{TargetBits: 4, StrideDims: s.Cfg.StrideDims, Weights: src.Weights})
		return
	})
	if err != nil {
		return nil, err
	}
	vtess := 0.0
	for _, st := range compiled.Stages {
		vtess += ms(st.Duration)
	}
	placeMS, err := timed(func() error { _, err := place.Place(a.NFA, place.Options{Seed: ruleSeed}); return err })
	if err != nil {
		return nil, err
	}
	md := d.Machines[serving].Model()
	m.set("core.compile_ms", coreMS, 0)
	m.set("core.vtess_ms", vtess, 0)
	m.set("core.states_out", float64(md.States), 0)
	m.set("core.state_overhead", ratio(float64(md.States), float64(md.OriginalStates)), 0)
	m.set("place.place_ms", placeMS, 0)
	m.set("espresso.cache_hit_rate", compiled.CacheHitRate(), 0)

	decodeMS, err := timed(func() error { _, err := artifact.Load(bytes.NewReader(d.Sealed)); return err })
	if err != nil {
		return nil, err
	}
	m.set("artifact.save_ms", ms(d.SaveTime), 0)
	m.set("artifact.decode_ms", decodeMS, 0)
	m.set("artifact.autm_mb", float64(info.Sections["AUTM"])/1e6, 0)

	m.set("arch.model_gbps", md.ThroughputGbps, 0)
	m.set("arch.model_mm2", md.AreaMM2, 0)
	m.set("arch.g4_units", float64(md.G4s), 0)
	m.set("arch.bitstream_kb", float64(md.BitstreamBytes)/1024, 0)

	if err := writeTrace(tr, filepath.Join(o.TraceDir, s.Name+".trace.json")); err != nil {
		return nil, err
	}
	res.Metrics = m.values
	return res, nil
}

// poolDoNS is the 10th-percentile cost of admitting an empty task to a par.Pool
// and waiting for it: the fixed price of the admission queue on every /match.
func poolDoNS(do func(context.Context, func()) error) (float64, int) {
	const calls = 2000
	ns := make([]float64, calls)
	ctx := context.Background()
	for i := range ns {
		t0 := time.Now()
		_ = do(ctx, func() {}) // a private, open pool with a free queue: Do cannot fail
		ns[i] = float64(time.Since(t0).Nanoseconds())
	}
	return quantile(ns, 0.10), calls
}

func writeTrace(tr *obs.Trace, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
