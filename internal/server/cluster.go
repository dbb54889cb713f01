package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"impala/internal/obs"
)

// WorkerSpec names one worker endpoint of a cluster frontend.
type WorkerSpec struct {
	// Name is the display/reporting handle (defaults to the URL host).
	Name string
	// URL is the worker's base URL, e.g. "http://10.0.0.1:8600".
	URL string
}

// ParseWorkers parses the -workers flag: comma-separated worker endpoints,
// each "name=url" or a bare URL (the host:port becomes the name).
func ParseWorkers(s string) ([]WorkerSpec, error) {
	var out []WorkerSpec
	seen := map[string]bool{}
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		spec := WorkerSpec{}
		if name, rest, ok := strings.Cut(field, "="); ok {
			spec.Name, spec.URL = strings.TrimSpace(name), strings.TrimSpace(rest)
		} else {
			spec.URL = field
		}
		u, err := url.Parse(spec.URL)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("server: bad worker URL %q (want scheme://host:port)", spec.URL)
		}
		spec.URL = strings.TrimRight(spec.URL, "/")
		if spec.Name == "" {
			spec.Name = u.Host
		}
		if seen[spec.Name] {
			return nil, fmt.Errorf("server: duplicate worker name %q", spec.Name)
		}
		seen[spec.Name] = true
		out = append(out, spec)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("server: no workers in %q", s)
	}
	return out, nil
}

// ClusterConfig tunes a frontend.
type ClusterConfig struct {
	// Workers is the worker endpoint set; every worker hosts a disjoint
	// shard subset of each tenant, so all of them answer every request.
	Workers []WorkerSpec
	// WorkerTimeout bounds one worker's /match leg (default 10s); an
	// expired leg degrades the request to a partial-result error.
	WorkerTimeout time.Duration
	// HealthInterval paces the background worker health checks
	// (default 2s; < 0 disables the loop — tests drive CheckWorkers).
	HealthInterval time.Duration
	// MaxBodyBytes bounds a /match payload (default 16 MiB).
	MaxBodyBytes int64
	// Metrics, when non-nil, receives the cluster instruments.
	Metrics *obs.Registry
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.WorkerTimeout == 0 {
		c.WorkerTimeout = 10 * time.Second
	}
	if c.HealthInterval == 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 16 << 20
	}
	return c
}

// workerState is the registry entry for one worker: the spec plus the
// health checker's latest verdict.
type workerState struct {
	spec WorkerSpec
	// base is spec.URL parsed once; every leg derives its URL from it by
	// value. nameJSON is spec.Name as a quoted JSON string.
	base      url.URL
	nameJSON  []byte
	healthy   atomic.Bool
	lastErr   atomic.Pointer[string]
	checkedAt atomic.Int64 // unix nanos, 0 = never
}

// Frontend fans /v1/{tenant}/match and /v1/{tenant}/stream out to a set of
// worker processes, each hosting a disjoint shard subset of the same sealed
// artifact, and merges the report streams. Merged one-shot responses use
// the same canonical (end, pattern) row order as a single-process server,
// so clients cannot tell the deployment shapes apart; a worker failure or
// timeout degrades to an explicit partial-result error (HTTP 502 with the
// failed workers named) rather than silently missing that worker's shards.
type Frontend struct {
	cfg     ClusterConfig
	workers []*workerState
	client  *http.Client
	handler http.Handler
	m       *clusterMetrics

	loopDone chan struct{}
	drainBarrier
}

// NewFrontend builds a frontend over the worker set and starts its health
// loop (unless disabled). Callers must Drain for a clean shutdown.
func NewFrontend(cfg ClusterConfig) (*Frontend, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("server: frontend needs at least one worker")
	}
	f := &Frontend{
		cfg:          cfg,
		client:       &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}},
		loopDone:     make(chan struct{}),
		drainBarrier: newDrainBarrier(),
	}
	seen := map[string]bool{}
	for _, spec := range cfg.Workers {
		if seen[spec.Name] {
			return nil, fmt.Errorf("server: duplicate worker name %q", spec.Name)
		}
		seen[spec.Name] = true
		base, err := url.Parse(strings.TrimRight(spec.URL, "/"))
		if err != nil {
			return nil, fmt.Errorf("server: bad worker URL %q: %w", spec.URL, err)
		}
		f.workers = append(f.workers, &workerState{spec: spec, base: *base, nameJSON: appendJSONString(nil, spec.Name)})
	}
	f.m = bindClusterMetrics(cfg.Metrics, f)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/{tenant}/match", f.handleMatch)
	mux.HandleFunc("POST /v1/{tenant}/stream", f.handleStream)
	mux.HandleFunc("POST /v1/{tenant}/reload", f.handleReload)
	mux.HandleFunc("GET /v1/workers", f.handleWorkers)
	mux.HandleFunc("GET /healthz", f.handleHealth)
	f.handler = newRequestIDs().wrap(mux)
	if cfg.HealthInterval > 0 {
		go f.healthLoop()
	} else {
		close(f.loopDone)
	}
	return f, nil
}

// Handler returns the HTTP handler (mount on any listener).
func (f *Frontend) Handler() http.Handler { return f.handler }

// Drain stops the health loop and new admissions, then waits for in-flight
// streams. Pair with http.Server.Shutdown for a clean SIGTERM exit.
func (f *Frontend) Drain() {
	f.drain()
	<-f.loopDone
	f.client.CloseIdleConnections()
}

// healthLoop polls every worker's /healthz on the configured cadence until
// the frontend drains.
func (f *Frontend) healthLoop() {
	defer close(f.loopDone)
	f.CheckWorkers()
	tick := time.NewTicker(f.cfg.HealthInterval)
	defer tick.Stop()
	for {
		select {
		case <-f.draining:
			return
		case <-tick.C:
			f.CheckWorkers()
		}
	}
}

// CheckWorkers probes every worker's /healthz once, concurrently, and
// updates the registry. The health verdict feeds /v1/workers and /healthz
// only — correctness never depends on it, since every request tries every
// worker and reports failures explicitly.
func (f *Frontend) CheckWorkers() {
	var wg sync.WaitGroup
	for _, w := range f.workers {
		wg.Add(1)
		go func(w *workerState) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), f.cfg.WorkerTimeout)
			defer cancel()
			err := f.probe(ctx, w)
			w.checkedAt.Store(time.Now().UnixNano())
			if err != nil {
				msg := err.Error()
				w.lastErr.Store(&msg)
				w.healthy.Store(false)
				return
			}
			w.lastErr.Store(nil)
			w.healthy.Store(true)
		}(w)
	}
	wg.Wait()
}

func (f *Frontend) probe(ctx context.Context, w *workerState) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.spec.URL+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz status %d", resp.StatusCode)
	}
	return nil
}

func (f *Frontend) healthyCount() int {
	n := 0
	for _, w := range f.workers {
		if w.healthy.Load() {
			n++
		}
	}
	return n
}

// post builds a body-less POST to the tenant's endpoint ("/match", …) on
// the worker, carrying the request's identifier. The URL is the worker's
// base, parsed once in NewFrontend, copied and extended — nothing is
// re-parsed per leg.
func (w *workerState) post(ctx context.Context, tenant, endpoint string, reqID []string) *http.Request {
	u := w.base
	u.Path += "/v1/" + tenant + endpoint
	if esc := url.PathEscape(tenant); esc != tenant || u.RawPath != "" {
		u.RawPath = w.base.EscapedPath() + "/v1/" + esc + endpoint
	}
	req := &http.Request{Method: http.MethodPost, URL: &u, Host: u.Host, Header: make(http.Header, 2)}
	if reqID != nil {
		req.Header[requestIDHeader] = reqID
	}
	return req.WithContext(ctx)
}

var contentOctets = []string{"application/octet-stream"}

// workerMatch is one worker's leg of a fanned one-shot match. The reply and
// its parsed rows live in the leg's own scratch, which the request's scratch
// releases with itself.
type workerMatch struct {
	sc     *scratch
	doc    matchDoc
	status int // worker HTTP status (0 on transport error)
	err    error
}

// postMatch runs one leg into leg: the worker's reply is read into the
// leg's scratch and must be exactly what a worker's handleMatch encodes for
// this tenant and this body; anything else is a bad response.
func (f *Frontend) postMatch(ctx context.Context, w *workerState, tenant string, tenantJSON, body []byte, reqID []string, leg *workerMatch) {
	f.m.workerRequests.Inc()
	req := w.post(ctx, tenant, "/match", reqID)
	req.Header["Content-Type"] = contentOctets
	if len(body) > 0 {
		// GetBody lets the transport replay the leg on a keep-alive
		// connection the worker closed under it.
		req.ContentLength = int64(len(body))
		req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil }
		req.Body, _ = req.GetBody()
	}
	resp, err := f.client.Do(req)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			f.m.workerTimeouts.Inc()
		}
		f.m.workerErrors.Inc()
		leg.err = err
		return
	}
	defer resp.Body.Close()
	leg.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		f.m.workerErrors.Inc()
		leg.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
		return
	}
	sc := leg.sc
	sc.body.Reset()
	if _, err = sc.body.ReadFrom(resp.Body); err == nil {
		if leg.doc, err = parseMatchDoc(sc.body.Bytes(), tenantJSON, sc.rows); err == nil && leg.doc.bytes != len(body) {
			err = fmt.Errorf("counted %d bytes of %d", leg.doc.bytes, len(body))
		}
	}
	if err != nil {
		f.m.workerErrors.Inc()
		leg.err = fmt.Errorf("bad response: %w", err)
		return
	}
	sc.rows = leg.doc.rows
}

// partialDoc is the degraded-result document: the merged matches from
// the workers that answered, plus the ones that did not. Clients must
// treat the match list as incomplete.
type partialDoc struct {
	Error         string   `json:"error"`
	Tenant        string   `json:"tenant"`
	FailedWorkers []string `json:"failed_workers"`
	Bytes         int      `json:"bytes"`
	// Matches is the merged row array, already encoded by the codec.
	Matches json.RawMessage `json:"matches"`
}

// handleMatch fans the one-shot request to every worker and merges the
// disjoint shard-subset results into the canonical (end, pattern) order —
// byte-identical with a single process hosting all shards. Any failed
// worker leg degrades the response to 502 with the failures named.
func (f *Frontend) handleMatch(w http.ResponseWriter, r *http.Request) {
	if f.isDraining() {
		httpError(w, f.m.errors, http.StatusServiceUnavailable, "draining")
		return
	}
	tenant := r.PathValue("tenant")
	sc := scratchPool.Get().(*scratch)
	defer sc.release()
	body, code, err := sc.readBody(r, f.cfg.MaxBodyBytes)
	if err != nil {
		httpError(w, f.m.errors, code, "%v", err)
		return
	}
	f.m.matchRequests.Inc()
	f.m.bytesIn.Add(int64(len(body)))

	ctx, cancel := context.WithTimeout(r.Context(), f.cfg.WorkerTimeout)
	defer cancel()
	// The quoted tenant name opens the response, and is what every worker's
	// reply must open with.
	sc.name = appendJSONString(sc.name[:0], tenant)
	reqID := requestID(w)
	t0 := time.Now()
	// One leg per worker, each with a scratch of its own that stays out of
	// the pool until sc is released: the merge reads the legs' rows.
	for range f.workers {
		sc.legs = append(sc.legs, workerMatch{sc: scratchPool.Get().(*scratch)})
	}
	var wg sync.WaitGroup
	for i, wk := range f.workers {
		wg.Add(1)
		go func(wk *workerState, leg *workerMatch) {
			defer wg.Done()
			f.postMatch(ctx, wk, tenant, sc.name, body, reqID, leg)
		}(wk, &sc.legs[i])
	}
	wg.Wait()
	elapsed := time.Since(t0)
	f.m.fanoutLatency.Observe(elapsed.Nanoseconds())

	runs := sc.runs[:0]
	var failed []string
	generation, all404 := 0, true
	for i, res := range sc.legs {
		if res.err != nil {
			failed = append(failed, f.workers[i].spec.Name)
			if res.status != http.StatusNotFound {
				all404 = false
			}
			continue
		}
		all404 = false
		runs = append(runs, res.doc.rowRun)
		generation = max(generation, res.doc.generation)
	}
	sc.runs = runs
	if all404 {
		// Every worker rejected the tenant: surface the 404, not a partial.
		httpError(w, f.m.errors, http.StatusNotFound, "unknown tenant %q on all %d workers", tenant, len(f.workers))
		return
	}
	// The workers' runs are each sorted already: one k-way merge writes the
	// rows straight into the response.
	if len(failed) > 0 {
		out, n := appendMergedRows(append(sc.out[:0], '['), runs)
		sc.out = append(out, ']')
		f.m.reports.Add(int64(n))
		f.m.partials.Inc()
		f.m.errors.Inc()
		w.Header()["Content-Type"] = contentJSON
		w.WriteHeader(http.StatusBadGateway)
		_ = json.NewEncoder(w).Encode(partialDoc{
			Error: fmt.Sprintf("partial result: %d of %d workers failed (%s)",
				len(failed), len(f.workers), strings.Join(failed, ", ")),
			Tenant:        tenant,
			FailedWorkers: failed,
			Bytes:         len(body),
			Matches:       sc.out,
		})
		return
	}
	out, n := appendMergedRows(appendMatchHead(sc.out[:0], sc.name, generation, len(body)), runs)
	sc.out = appendMatchTail(out, elapsed.Microseconds())
	f.m.reports.Add(int64(n))
	writeJSON(w, sc.out)
}

// workerStream is one worker's leg of a fanned stream: the frontend tees
// every client chunk into pw, and the reader goroutine relays the worker's
// NDJSON match lines until its done line (or an error) arrives.
type workerStream struct {
	pw      *io.PipeWriter
	dead    atomic.Bool
	done    chan struct{}
	matches int64
	err     error
}

// handleStream fans an NDJSON stream to every worker: client chunks are
// teed into per-worker request bodies as they arrive, worker match lines
// are relayed to the client as they come back (interleaved across workers;
// per-worker order preserved), and the final done line sums the legs. Any
// failed leg flags the done line partial with the worker named.
func (f *Frontend) handleStream(w http.ResponseWriter, r *http.Request) {
	if f.isDraining() {
		httpError(w, f.m.errors, http.StatusServiceUnavailable, "draining")
		return
	}
	if !f.enterStream() {
		httpError(w, f.m.errors, http.StatusServiceUnavailable, "draining")
		return
	}
	defer f.wg.Done()
	f.m.streamRequests.Inc()
	tenant := r.PathValue("tenant")

	_ = http.NewResponseController(w).EnableFullDuplex()
	w.Header()["Content-Type"] = contentNDJSON
	flusher, _ := w.(http.Flusher)

	var mu sync.Mutex // serializes relayed lines and the final write
	relay := func(lines []byte) {
		mu.Lock()
		defer mu.Unlock()
		_, _ = w.Write(lines)
		if flusher != nil {
			flusher.Flush()
		}
	}
	reqID := requestID(w)

	legs := make([]*workerStream, len(f.workers))
	for i, wk := range f.workers {
		pr, pw := io.Pipe()
		leg := &workerStream{pw: pw, done: make(chan struct{})}
		legs[i] = leg
		go func(wk *workerState, leg *workerStream, pr *io.PipeReader) {
			defer close(leg.done)
			f.m.workerRequests.Inc()
			leg.err = f.relayWorkerStream(r.Context(), wk, tenant, reqID, pr, leg, relay)
			if leg.err != nil {
				f.m.workerErrors.Inc()
				leg.dead.Store(true)
				// Unblock the feeder: drain and discard the remaining tee.
				pr.CloseWithError(leg.err)
			}
		}(wk, leg, pr)
	}

	bufp := chunkPool.Get().(*[]byte)
	defer chunkPool.Put(bufp)
	buf := *bufp
	var total int64
	for {
		n, err := r.Body.Read(buf)
		if n > 0 {
			total += int64(n)
			f.m.bytesIn.Add(int64(n))
			for _, leg := range legs {
				if leg.dead.Load() {
					continue
				}
				if _, werr := leg.pw.Write(buf[:n]); werr != nil {
					leg.dead.Store(true)
				}
			}
		}
		if err != nil {
			if !errors.Is(err, io.EOF) {
				for _, leg := range legs {
					leg.pw.CloseWithError(err)
				}
				return // client went away; nothing sensible to write
			}
			break
		}
	}
	var matches int64
	var failed [][]byte
	for i, leg := range legs {
		leg.pw.Close()
		<-leg.done
		if leg.err != nil {
			failed = append(failed, f.workers[i].nameJSON)
			continue
		}
		matches += leg.matches
	}
	f.m.reports.Add(matches)
	if len(failed) > 0 {
		f.m.partials.Inc()
	}
	// On the healthy path the done line carries exactly the single-process
	// fields; a degraded stream adds the partial flag and the failed workers.
	var line [96]byte
	relay(appendClusterDone(line[:0], total, matches, failed))
}

// relayWorkerStream runs one worker leg: POST the teed body and relay the
// worker's report lines — all the complete lines of a read in one relay call
// — up to its done line, whose match count the leg records. Every line must
// be the codec's; a worker that sends anything else has failed.
func (f *Frontend) relayWorkerStream(ctx context.Context, wk *workerState, tenant string, reqID []string, body io.ReadCloser, leg *workerStream, relay func([]byte)) error {
	req := wk.post(ctx, tenant, "/stream", reqID)
	req.Header["Content-Type"] = contentOctets
	req.Body = body
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	bufp := chunkPool.Get().(*[]byte)
	defer chunkPool.Put(bufp)
	buf, held := *bufp, 0 // buf[:held] is an incomplete line
	var p streamParser
	for !p.done {
		n, rerr := resp.Body.Read(buf[held:])
		held += n
		rows, used, err := p.feed(buf[:held])
		if err != nil {
			return fmt.Errorf("bad stream line: %w", err)
		}
		if rows > 0 {
			relay(buf[:rows])
		}
		held = copy(buf, buf[used:held])
		switch {
		case p.done:
		case errors.Is(rerr, io.EOF):
			return fmt.Errorf("stream ended without a done line")
		case rerr != nil:
			return rerr
		case held == len(buf):
			return fmt.Errorf("bad stream line: %d bytes without a newline", held)
		}
	}
	leg.matches = p.matches
	return nil
}

// handleReload fans the tenant reload to every worker and reports the
// per-worker outcome; any failed leg makes the response a 502 (workers
// that did reload keep their new generation — reloads are idempotent).
func (f *Frontend) handleReload(w http.ResponseWriter, r *http.Request) {
	tenant := r.PathValue("tenant")
	type outcome struct {
		Generation int    `json:"generation,omitempty"`
		Error      string `json:"error,omitempty"`
	}
	outcomes := make([]outcome, len(f.workers))
	ctx, cancel := context.WithTimeout(r.Context(), f.cfg.WorkerTimeout)
	defer cancel()
	reqID := requestID(w)
	var wg sync.WaitGroup
	for i, wk := range f.workers {
		wg.Add(1)
		go func(i int, wk *workerState) {
			defer wg.Done()
			gen, err := f.postReload(ctx, wk, tenant, reqID)
			if err != nil {
				outcomes[i] = outcome{Error: err.Error()}
				return
			}
			outcomes[i] = outcome{Generation: gen}
		}(i, wk)
	}
	wg.Wait()
	failed := 0
	byWorker := make(map[string]outcome, len(outcomes))
	for i, o := range outcomes {
		byWorker[f.workers[i].spec.Name] = o
		if o.Error != "" {
			failed++
		}
	}
	code := http.StatusOK
	if failed > 0 {
		f.m.errors.Inc()
		code = http.StatusBadGateway
	} else {
		f.m.reloads.Inc()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]any{"tenant": tenant, "workers": byWorker})
}

func (f *Frontend) postReload(ctx context.Context, wk *workerState, tenant string, reqID []string) (int, error) {
	f.m.workerRequests.Inc()
	resp, err := f.client.Do(wk.post(ctx, tenant, "/reload", reqID))
	if err != nil {
		f.m.workerErrors.Inc()
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		f.m.workerErrors.Inc()
		return 0, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var body struct {
		Generation int `json:"generation"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		f.m.workerErrors.Inc()
		return 0, fmt.Errorf("bad response: %w", err)
	}
	return body.Generation, nil
}

// workerJSON is one row of the GET /v1/workers listing.
type workerJSON struct {
	Name      string `json:"name"`
	URL       string `json:"url"`
	Healthy   bool   `json:"healthy"`
	LastError string `json:"last_error,omitempty"`
	CheckedAt string `json:"checked_at,omitempty"`
}

func (f *Frontend) handleWorkers(w http.ResponseWriter, _ *http.Request) {
	out := make([]workerJSON, 0, len(f.workers))
	for _, wk := range f.workers {
		row := workerJSON{
			Name:    wk.spec.Name,
			URL:     wk.spec.URL,
			Healthy: wk.healthy.Load(),
		}
		if msg := wk.lastErr.Load(); msg != nil {
			row.LastError = *msg
		}
		if at := wk.checkedAt.Load(); at != 0 {
			row.CheckedAt = time.Unix(0, at).UTC().Format(time.RFC3339)
		}
		out = append(out, row)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

func (f *Frontend) handleHealth(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	code := http.StatusOK
	healthy := f.healthyCount()
	switch {
	case f.isDraining():
		status, code = "draining", http.StatusServiceUnavailable
	case healthy < len(f.workers):
		status = "degraded"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status": status, "role": "frontend",
		"workers": len(f.workers), "healthy": healthy,
	})
}

// clusterMetrics is the frontend's instrument set (all nil-safe):
//
//	cluster_match_requests_total   one-shot requests fanned out
//	cluster_stream_requests_total  streams fanned out
//	cluster_worker_requests_total  worker legs issued (match/stream/reload)
//	cluster_worker_errors_total    failed worker legs
//	cluster_worker_timeouts_total  worker legs lost to WorkerTimeout
//	cluster_partial_results_total  responses degraded to partial
//	cluster_errors_total           error responses from the frontend
//	cluster_reloads_total          fully successful fanned reloads
//	cluster_bytes_in_total         payload bytes accepted
//	cluster_reports_total          merged matches returned
//	cluster_workers                gauge: configured workers
//	cluster_healthy_workers        gauge: workers passing health checks
//	cluster_fanout_latency_ns      histogram: fan-out round trip per /match
type clusterMetrics struct {
	matchRequests  *obs.Counter
	streamRequests *obs.Counter
	workerRequests *obs.Counter
	workerErrors   *obs.Counter
	workerTimeouts *obs.Counter
	partials       *obs.Counter
	errors         *obs.Counter
	reloads        *obs.Counter
	bytesIn        *obs.Counter
	reports        *obs.Counter
	fanoutLatency  *obs.Histogram
}

func bindClusterMetrics(reg *obs.Registry, f *Frontend) *clusterMetrics {
	m := &clusterMetrics{
		matchRequests:  reg.Counter("cluster_match_requests_total"),
		streamRequests: reg.Counter("cluster_stream_requests_total"),
		workerRequests: reg.Counter("cluster_worker_requests_total"),
		workerErrors:   reg.Counter("cluster_worker_errors_total"),
		workerTimeouts: reg.Counter("cluster_worker_timeouts_total"),
		partials:       reg.Counter("cluster_partial_results_total"),
		errors:         reg.Counter("cluster_errors_total"),
		reloads:        reg.Counter("cluster_reloads_total"),
		bytesIn:        reg.Counter("cluster_bytes_in_total"),
		reports:        reg.Counter("cluster_reports_total"),
		fanoutLatency:  reg.Histogram("cluster_fanout_latency_ns", obs.LatencyBuckets()),
	}
	reg.GaugeFunc("cluster_workers", func() int64 { return int64(len(f.workers)) })
	reg.GaugeFunc("cluster_healthy_workers", func() int64 { return int64(f.healthyCount()) })
	return m
}
