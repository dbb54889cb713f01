package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"impala"
	"impala/internal/obs"
	"impala/internal/par"
)

// Per-request buffers are recycled across requests, mirroring the engine
// pools in sim/compiled.go: scratchPool holds a /match request's working set
// and chunkPool the 32 KiB buffers a /stream reads its body into and builds
// its response lines in. Under steady-state traffic the handlers then
// allocate only what the engine and net/http need, and a /match nothing per
// row (pinned by TestMatchHandlerZeroRowAllocs and TestStreamHandlerAllocs).
var (
	scratchPool = sync.Pool{New: func() any {
		sc := new(scratch)
		sc.match = sc.runMatch
		return sc
	}}
	chunkPool = sync.Pool{New: func() any { b := make([]byte, 32<<10); return &b }}
)

// scratch is the pooled working set of one /match request, or of one worker
// leg of a fanned one: the bytes read (the request body; on a leg, the
// worker's reply), the engine's rows or the rows a frontend parses and
// merges, and the encoded response.
type scratch struct {
	body  bytes.Buffer
	limit io.LimitedReader // readBody's cap on the request body

	// The one-shot task. match is runMatch bound once, when the scratch is
	// made, so handing it to the pool allocates nothing; it runs tenant's
	// machine over body and leaves the engine's rows in matches, whose
	// capacity it reuses.
	tenant  *Tenant
	match   func()
	matches []impala.Match

	name []byte        // frontend: the tenant name, quoted
	legs []workerMatch // frontend: one leg per worker, each with its scratch
	runs []rowRun      // frontend: the legs' rows, as the merge consumes them
	rows []wireRow     // leg: the reply's rows
	out  []byte
}

func (sc *scratch) runMatch() {
	sc.matches = sc.tenant.Machine.AppendMatch(sc.matches[:0], sc.body.Bytes())
}

// release returns the scratch to the pool holding buffers only: an idle
// scratch must not pin a tenant's machine or a request's body reader. The
// buffers keep their capacity — body, out and matches alike, for a Match
// holds no pointer.
func (sc *scratch) release() {
	sc.limit.R, sc.tenant = nil, nil
	for i := range sc.legs {
		sc.legs[i].sc.release()
	}
	clear(sc.legs)
	sc.legs = sc.legs[:0]
	scratchPool.Put(sc)
}

// readBody reads a /match payload of at most limit bytes into sc.body; on
// failure code is the status to refuse the request with.
func (sc *scratch) readBody(r *http.Request, limit int64) (body []byte, code int, err error) {
	sc.body.Reset()
	sc.limit = io.LimitedReader{R: r.Body, N: limit + 1}
	if _, err := sc.body.ReadFrom(&sc.limit); err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("reading body: %v", err)
	}
	if int64(sc.body.Len()) > limit {
		return nil, http.StatusRequestEntityTooLarge, fmt.Errorf("body exceeds %d bytes", limit)
	}
	return sc.body.Bytes(), 0, nil
}

// Header values every response shares; net/http only reads them.
var (
	contentJSON   = []string{"application/json"}
	contentNDJSON = []string{"application/x-ndjson"}
)

// Config tunes the daemon.
type Config struct {
	// Workers is the one-shot match worker-pool size (<=0: GOMAXPROCS).
	Workers int
	// QueueLen bounds match tasks admitted beyond the busy workers
	// (default 64). A full queue rejects with 503 — backpressure instead
	// of unbounded buffering.
	QueueLen int
	// MaxStreams bounds concurrent streaming connections (default 256);
	// excess connections are rejected with 503.
	MaxStreams int
	// RequestTimeout bounds one /match request from admission to
	// completion (default 10s).
	RequestTimeout time.Duration
	// MaxBodyBytes bounds a /match payload (default 16 MiB). Streams are
	// unbounded in total but read chunk-wise.
	MaxBodyBytes int64
	// Metrics, when non-nil, receives the server instruments (see
	// bindMetrics) — typically the same registry the ops listener serves.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.QueueLen == 0 {
		c.QueueLen = 64
	}
	if c.MaxStreams == 0 {
		c.MaxStreams = 256
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 16 << 20
	}
	return c
}

// Server hosts the tenant registry and the match/stream endpoints.
type Server struct {
	cfg     Config
	tenants *Registry
	pool    *par.Pool
	m       *metrics
	handler http.Handler

	streamSem chan struct{}
	drainBarrier
}

// drainBarrier is the admission state a Server and a Frontend share: once
// drain closes it no new work is admitted, and the streams admitted before
// it closed are waited for.
type drainBarrier struct {
	draining chan struct{}
	drainMu  sync.Mutex     // serializes stream admission against drain
	wg       sync.WaitGroup // in-flight streaming connections
}

func newDrainBarrier() drainBarrier { return drainBarrier{draining: make(chan struct{})} }

// drain closes the barrier (again is a no-op) and waits for the admitted
// streams.
func (d *drainBarrier) drain() {
	d.drainMu.Lock()
	if !d.isDraining() {
		close(d.draining)
	}
	d.drainMu.Unlock()
	d.wg.Wait()
}

// enterStream registers a streaming connection with the barrier; the
// handler calls wg.Done when it ends. It is serialized against drain so a
// connection either registers before the barrier closes (and drain waits for
// it) or observes draining and is rejected — wg.Add can never race wg.Wait
// past zero.
func (d *drainBarrier) enterStream() bool {
	d.drainMu.Lock()
	defer d.drainMu.Unlock()
	if d.isDraining() {
		return false
	}
	d.wg.Add(1)
	return true
}

func (d *drainBarrier) isDraining() bool {
	select {
	case <-d.draining:
		return true
	default:
		return false
	}
}

// httpError writes a JSON error body and counts it on errs.
func httpError(w http.ResponseWriter, errs *obs.Counter, code int, format string, args ...any) {
	errs.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// New builds a server around an empty tenant registry.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:          cfg,
		tenants:      NewRegistry(),
		pool:         par.NewPool(cfg.Workers, cfg.QueueLen),
		streamSem:    make(chan struct{}, cfg.MaxStreams),
		drainBarrier: newDrainBarrier(),
	}
	s.m = bindMetrics(cfg.Metrics, s.pool, s.tenants)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/{tenant}/match", s.handleMatch)
	mux.HandleFunc("POST /v1/{tenant}/stream", s.handleStream)
	mux.HandleFunc("POST /v1/{tenant}/reload", s.handleReload)
	mux.HandleFunc("DELETE /v1/{tenant}", s.handleEvict)
	mux.HandleFunc("GET /v1/tenants", s.handleTenants)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	s.handler = newRequestIDs().wrap(mux)
	return s
}

// Tenants exposes the registry for loading/eviction by the embedding
// binary (impala-serve's -load flags, tests).
func (s *Server) Tenants() *Registry { return s.tenants }

// Handler returns the HTTP handler (mount on any listener).
func (s *Server) Handler() http.Handler { return s.handler }

// Drain stops admitting work and waits for in-flight requests: match tasks
// finish on the pool, streaming connections run to completion. Call after
// (or concurrently with) http.Server.Shutdown for a clean SIGTERM exit.
func (s *Server) Drain() {
	s.drain()
	s.pool.Close()
}

func (s *Server) tenant(w http.ResponseWriter, r *http.Request) (*Tenant, bool) {
	name := r.PathValue("tenant")
	t, ok := s.tenants.Get(name)
	if !ok {
		httpError(w, s.m.errors, http.StatusNotFound, "unknown tenant %q", name)
		return nil, false
	}
	return t, true
}

// handleMatch is the one-shot batched endpoint: the request body is the
// input stream, the response lists every distinct match. Work runs on the
// bounded pool — a full queue is a 503, an expired per-request timeout a
// 504 — so a traffic spike degrades by rejecting, not by melting.
func (s *Server) handleMatch(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		s.m.rejected.Inc()
		httpError(w, s.m.errors, http.StatusServiceUnavailable, "draining")
		return
	}
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	sc := scratchPool.Get().(*scratch)
	defer sc.release()
	body, code, err := sc.readBody(r, s.cfg.MaxBodyBytes)
	if err != nil {
		httpError(w, s.m.errors, code, "%v", err)
		return
	}
	s.m.matchRequests.Inc()
	s.m.bytesIn.Add(int64(len(body)))
	s.m.matchBytes.Observe(int64(len(body)))

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	t0 := time.Now()
	sc.tenant = t
	err = s.pool.Do(ctx, sc.match)
	switch {
	case errors.Is(err, par.ErrQueueFull), errors.Is(err, par.ErrPoolClosed):
		s.m.rejected.Inc()
		httpError(w, s.m.errors, http.StatusServiceUnavailable, "match queue full")
		return
	case errors.Is(err, context.DeadlineExceeded):
		httpError(w, s.m.errors, http.StatusGatewayTimeout, "timed out after %s in queue", s.cfg.RequestTimeout)
		return
	case err != nil:
		httpError(w, s.m.errors, http.StatusServiceUnavailable, "%v", err)
		return
	}
	elapsed := time.Since(t0)
	s.m.matchLatency.Observe(elapsed.Nanoseconds())
	s.m.reports.Add(int64(len(sc.matches)))

	// The engine's own slice, already in the canonical (end, pattern) order
	// of the serving boundary (see rowLess), is encoded from where it lies:
	// no row is copied or boxed on the way out.
	out := appendMatchHead(sc.out[:0], t.nameJSON, t.Generation, len(body))
	for i, mt := range sc.matches {
		if i > 0 {
			out = append(out, ',')
		}
		out = t.appendRow(out, mt)
	}
	sc.out = appendMatchTail(out, elapsed.Microseconds())
	writeJSON(w, sc.out)
}

// writeJSON sends a complete, already encoded JSON response in one Write.
func writeJSON(w http.ResponseWriter, doc []byte) {
	h := w.Header()
	h["Content-Type"] = contentJSON
	h.Set("Content-Length", strconv.Itoa(len(doc)))
	_, _ = w.Write(doc) // the client is gone; there is no one to tell
}

// handleStream is the incremental endpoint: the chunked request body is
// fed into a per-connection stream over the tenant's machine, and matches
// are written back as NDJSON lines as they complete — a long-lived
// per-flow session, not a buffered batch. Each connection holds one
// MaxStreams slot for its lifetime; the match worker pool is not involved,
// so short one-shot requests are never starved by long flows.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		s.m.rejected.Inc()
		httpError(w, s.m.errors, http.StatusServiceUnavailable, "draining")
		return
	}
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	select {
	case s.streamSem <- struct{}{}:
	default:
		s.m.rejected.Inc()
		httpError(w, s.m.errors, http.StatusServiceUnavailable, "stream limit (%d) reached", s.cfg.MaxStreams)
		return
	}
	if !s.enterStream() {
		<-s.streamSem
		s.m.rejected.Inc()
		httpError(w, s.m.errors, http.StatusServiceUnavailable, "draining")
		return
	}
	defer func() {
		<-s.streamSem
		s.wg.Done()
	}()
	s.m.streamRequests.Inc()
	s.m.activeStreams.Inc()
	defer s.m.activeStreams.Dec()

	// Matches are written back while the request body is still being read:
	// without full-duplex mode the HTTP/1 server closes the request body at
	// the first response write, killing the stream mid-flow.
	rc := http.NewResponseController(w)
	_ = rc.EnableFullDuplex()

	w.Header()["Content-Type"] = contentNDJSON
	w.Header().Set("X-Tenant-Generation", strconv.Itoa(t.Generation))

	// Rows are appended to one pooled buffer and leave in one Write per fed
	// chunk, just before its Flush. The buffer never grows: a chunk dense
	// enough to fill it is written through early, so a stream holds 64 KiB
	// whatever its hit rate. The first failed write ends the stream — gone
	// is set, the sinks drop what the engine still reports, and the handler
	// flushes the session and returns instead of scanning to EOF for no one.
	inp, outp := chunkPool.Get().(*[]byte), chunkPool.Get().(*[]byte)
	defer chunkPool.Put(inp)
	defer chunkPool.Put(outp)
	buf, out := *inp, (*outp)[:0]
	gone := false
	write := func() {
		if _, err := w.Write(out); err != nil {
			gone = true
		}
		out = out[:0]
	}
	var total, nmatches int64
	// A scored tenant's stream defers a row until its score can no longer
	// change (at most a few cycles after the match), with the remainder
	// drained at Flush.
	stream := t.Machine.NewStream(func(mt impala.Match) {
		if gone {
			return
		}
		nmatches++
		if out = append(t.appendRow(out, mt), '\n'); len(out) > cap(out)-wireRowMax {
			write()
		}
	})
	// emit sends what the last chunk produced; false once the client is gone.
	emit := func() bool {
		if len(out) > 0 && !gone {
			write()
		}
		if err := rc.Flush(); err != nil && !errors.Is(err, http.ErrNotSupported) {
			gone = true
		}
		return !gone
	}
	for eof := false; !eof; {
		n, err := r.Body.Read(buf)
		if n > 0 {
			total += int64(n)
			s.m.bytesIn.Add(int64(n))
			s.m.streamChunk.Observe(int64(n))
			stream.Feed(buf[:n])
		}
		eof = errors.Is(err, io.EOF)
		broken := err != nil && !eof
		if !broken && n > 0 {
			broken = !emit()
		}
		if broken {
			// The client went away mid-stream — its upload broke, or it stopped
			// reading — and there is nothing sensible to write. The session
			// still ends: it holds sim_active_streams until it is flushed, with
			// the rows its flush completes dropped.
			gone = true
			stream.Flush()
			return
		}
	}
	stream.Flush()
	s.m.reports.Add(nmatches)
	out = appendStreamDone(out, total, nmatches)
	emit()
}

// tenantJSON is one row of the GET /v1/tenants listing.
type tenantJSON struct {
	Name       string `json:"name"`
	Generation int    `json:"generation"`
	Path       string `json:"path,omitempty"`
	Domain     string `json:"domain,omitempty"`
	States     int    `json:"states"`
	Stride     int    `json:"stride"`
	Bits       int    `json:"bits"`
	Groups     int    `json:"groups,omitempty"`
	LoadedAt   string `json:"loaded_at"`
	// ScoreThreshold is present only on scored tenants (SCOR artifacts).
	ScoreThreshold *float64 `json:"score_threshold,omitempty"`
}

func (s *Server) handleTenants(w http.ResponseWriter, _ *http.Request) {
	out := []tenantJSON{}
	for _, t := range s.tenants.Tenants() {
		md := t.Machine.Model()
		bits, stride := t.Machine.Geometry()
		row := tenantJSON{
			Name:       t.Name,
			Generation: t.Generation,
			Path:       t.Path,
			Domain:     t.Domain,
			States:     md.States,
			Stride:     stride,
			Bits:       bits,
			Groups:     md.G4s,
			LoadedAt:   t.LoadedAt.UTC().Format(time.RFC3339),
		}
		if si := t.Machine.ScoreInfo(); si != nil {
			th := si.Threshold
			row.ScoreThreshold = &th
		}
		out = append(out, row)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

// handleReload hot-swaps the tenant from its artifact file. The swap is
// atomic: readers either see the old generation or the new one, and a
// load failure leaves the old generation serving.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	t, err := s.tenants.Reload(name)
	if err != nil {
		httpError(w, s.m.errors, http.StatusConflict, "%v", err)
		return
	}
	s.m.reloads.Inc()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"tenant": t.Name, "generation": t.Generation})
}

func (s *Server) handleEvict(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	if !s.tenants.Evict(name) {
		httpError(w, s.m.errors, http.StatusNotFound, "unknown tenant %q", name)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.isDraining() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]any{"status": status, "tenants": s.tenants.Len()})
}
