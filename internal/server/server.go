package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"time"

	"impala"
	"impala/internal/obs"
	"impala/internal/par"
)

// Per-request buffers are recycled across requests, mirroring the engine
// pools in sim/compiled.go: bodyPool holds /match request bodies, rowsPool
// the response match rows, and chunkPool the /stream read buffers. Under
// steady-state traffic the handlers then allocate only what the engine and
// the JSON encoder need (pinned by TestMatchHandlerAllocs).
var (
	bodyPool  = sync.Pool{New: func() any { return new(bytes.Buffer) }}
	rowsPool  = sync.Pool{New: func() any { return &matchRows{rows: make([]matchJSON, 0, 64)} }}
	chunkPool = sync.Pool{New: func() any { b := make([]byte, 32<<10); return &b }}
)

// matchRows boxes the pooled row slice so Put never allocates.
type matchRows struct{ rows []matchJSON }

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
	mux     *http.ServeMux

	streamSem chan struct{}
	draining  chan struct{}
	drainOnce sync.Once
	drainMu   sync.Mutex     // serializes stream admission against Drain
	wg        sync.WaitGroup // in-flight streaming connections
}

// New builds a server around an empty tenant registry.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		tenants:   NewRegistry(),
		pool:      par.NewPool(cfg.Workers, cfg.QueueLen),
		streamSem: make(chan struct{}, cfg.MaxStreams),
		draining:  make(chan struct{}),
	}
	s.m = bindMetrics(cfg.Metrics, s.pool, s.tenants)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/{tenant}/match", s.handleMatch)
	mux.HandleFunc("POST /v1/{tenant}/stream", s.handleStream)
	mux.HandleFunc("POST /v1/{tenant}/reload", s.handleReload)
	mux.HandleFunc("DELETE /v1/{tenant}", s.handleEvict)
	mux.HandleFunc("GET /v1/tenants", s.handleTenants)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux = mux
	return s
}

// Tenants exposes the registry for loading/eviction by the embedding
// binary (impala-serve's -load flags, tests).
func (s *Server) Tenants() *Registry { return s.tenants }

// Handler returns the HTTP handler (mount on any listener).
func (s *Server) Handler() http.Handler { return s.mux }

// Drain stops admitting work and waits for in-flight requests: match tasks
// finish on the pool, streaming connections run to completion. Call after
// (or concurrently with) http.Server.Shutdown for a clean SIGTERM exit.
func (s *Server) Drain() {
	s.drainOnce.Do(func() {
		s.drainMu.Lock()
		close(s.draining)
		s.drainMu.Unlock()
	})
	s.wg.Wait()
	s.pool.Close()
}

// enterStream registers a streaming connection with the drain barrier. It
// is serialized against Drain so a connection either registers before the
// barrier closes (and Drain waits for it) or observes draining and is
// rejected — wg.Add can never race wg.Wait past zero.
func (s *Server) enterStream() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.isDraining() {
		return false
	}
	s.wg.Add(1)
	return true
}

func (s *Server) isDraining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// httpError writes a JSON error body and counts it.
func (s *Server) httpError(w http.ResponseWriter, code int, format string, args ...any) {
	s.m.errors.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) tenant(w http.ResponseWriter, r *http.Request) (*Tenant, bool) {
	name := r.PathValue("tenant")
	t, ok := s.tenants.Get(name)
	if !ok {
		s.httpError(w, http.StatusNotFound, "unknown tenant %q", name)
		return nil, false
	}
	return t, true
}

// matchResponse is the one-shot result document.
type matchResponse struct {
	Tenant     string      `json:"tenant"`
	Generation int         `json:"generation"`
	Bytes      int         `json:"bytes"`
	Matches    []matchJSON `json:"matches"`
	ElapsedUS  int64       `json:"elapsed_us"`
}

type matchJSON struct {
	End     int `json:"end"`
	Pattern int `json:"pattern"`
	// Score carries the accumulated max-plus score on scored tenants
	// (machines whose artifact sealed a SCOR weight table); it is absent on
	// binary tenants, so their response bytes are unchanged.
	Score *float64 `json:"score,omitempty"`
}

// sortRows puts match rows in the serving-boundary canonical order:
// (end, pattern), ascending. Both the single-process /match handler and
// the cluster frontend's merge emit this order, so a client cannot tell a
// frontend fanning out to workers from one process hosting every shard —
// the byte-identity the clustersweep gate pins.
func sortRows(rows []matchJSON) {
	slices.SortFunc(rows, func(a, b matchJSON) int {
		if a.End != b.End {
			return a.End - b.End
		}
		return a.Pattern - b.Pattern
	})
}

// handleMatch is the one-shot batched endpoint: the request body is the
// input stream, the response lists every distinct match. Work runs on the
// bounded pool — a full queue is a 503, an expired per-request timeout a
// 504 — so a traffic spike degrades by rejecting, not by melting.
func (s *Server) handleMatch(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		s.m.rejected.Inc()
		s.httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	bb := bodyPool.Get().(*bytes.Buffer)
	bb.Reset()
	defer bodyPool.Put(bb)
	if _, err := bb.ReadFrom(io.LimitReader(r.Body, s.cfg.MaxBodyBytes+1)); err != nil {
		s.httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	body := bb.Bytes()
	if int64(len(body)) > s.cfg.MaxBodyBytes {
		s.httpError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", s.cfg.MaxBodyBytes)
		return
	}
	s.m.matchRequests.Inc()
	s.m.bytesIn.Add(int64(len(body)))
	s.m.matchBytes.Observe(int64(len(body)))

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	t0 := time.Now()
	// A tenant whose artifact sealed a weight table serves threshold-filtered
	// scored rows; binary tenants keep the exact pre-scoring response bytes.
	var matches []impala.Match
	var scored []impala.ScoredMatch
	err := s.pool.Do(ctx, func() {
		if t.scored {
			scored, _ = t.Machine.MatchScored(body)
		} else {
			matches = t.Machine.Match(body)
		}
	})
	switch {
	case errors.Is(err, par.ErrQueueFull), errors.Is(err, par.ErrPoolClosed):
		s.m.rejected.Inc()
		s.httpError(w, http.StatusServiceUnavailable, "match queue full")
		return
	case errors.Is(err, context.DeadlineExceeded):
		s.httpError(w, http.StatusGatewayTimeout, "timed out after %s in queue", s.cfg.RequestTimeout)
		return
	case err != nil:
		s.httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	elapsed := time.Since(t0)
	s.m.matchLatency.Observe(elapsed.Nanoseconds())
	s.m.reports.Add(int64(len(matches) + len(scored)))

	rp := rowsPool.Get().(*matchRows)
	rp.rows = rp.rows[:0]
	if t.scored {
		// Score points into the result slice: no float boxed per row.
		for i := range scored {
			sm := &scored[i]
			rp.rows = append(rp.rows, matchJSON{End: sm.End, Pattern: sm.Pattern, Score: &sm.Score})
		}
	} else {
		for _, mt := range matches {
			rp.rows = append(rp.rows, matchJSON{End: mt.End, Pattern: mt.Pattern})
		}
	}
	sortRows(rp.rows)
	resp := matchResponse{
		Tenant:     t.Name,
		Generation: t.Generation,
		Bytes:      len(body),
		Matches:    rp.rows,
		ElapsedUS:  elapsed.Microseconds(),
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
	clear(rp.rows) // an idle pooled buffer must not pin the request's scores
	rowsPool.Put(rp)
}

// streamDone is the final NDJSON line of a /stream response; match lines
// reuse matchJSON. Clients tell them apart by the "done" key.
type streamDone struct {
	Done    bool  `json:"done"`
	Bytes   int64 `json:"bytes"`
	Matches int64 `json:"matches"`
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
		s.httpError(w, http.StatusServiceUnavailable, "draining")
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
		s.httpError(w, http.StatusServiceUnavailable, "stream limit (%d) reached", s.cfg.MaxStreams)
		return
	}
	if !s.enterStream() {
		<-s.streamSem
		s.m.rejected.Inc()
		s.httpError(w, http.StatusServiceUnavailable, "draining")
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
	_ = http.NewResponseController(w).EnableFullDuplex()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Tenant-Generation", fmt.Sprint(t.Generation))
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	var total, nmatches int64
	var encErr error
	// Scored tenants stream scored rows; the window-deferred emission means
	// a row appears once its score can no longer change (at most a few
	// cycles after the match), with the remainder drained at Flush.
	var stream interface {
		Feed([]byte)
		Flush()
	}
	if t.scored {
		var sc float64 // one slot per stream, overwritten per row
		stream, _ = t.Machine.NewScoredStream(func(sm impala.ScoredMatch) {
			nmatches++
			if encErr == nil {
				sc = sm.Score
				encErr = enc.Encode(matchJSON{End: sm.End, Pattern: sm.Pattern, Score: &sc})
			}
		})
	} else {
		stream = t.Machine.NewStream(func(mt impala.Match) {
			nmatches++
			if encErr == nil {
				encErr = enc.Encode(matchJSON{End: mt.End, Pattern: mt.Pattern})
			}
		})
	}
	bufp := chunkPool.Get().(*[]byte)
	defer chunkPool.Put(bufp)
	buf := *bufp
	for {
		n, err := r.Body.Read(buf)
		if n > 0 {
			total += int64(n)
			s.m.bytesIn.Add(int64(n))
			s.m.streamChunk.Observe(int64(n))
			stream.Feed(buf[:n])
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			if !errors.Is(err, io.EOF) {
				// Client went away mid-stream; nothing sensible to write. The
				// session still ends — it holds sim_active_streams until it
				// is flushed — with the rows its flush completes dropped.
				encErr = err
				stream.Flush()
				return
			}
			break
		}
	}
	stream.Flush()
	s.m.reports.Add(nmatches)
	if encErr == nil {
		_ = enc.Encode(streamDone{Done: true, Bytes: total, Matches: nmatches})
	}
	if flusher != nil {
		flusher.Flush()
	}
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
		s.httpError(w, http.StatusConflict, "%v", err)
		return
	}
	s.m.reloads.Inc()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"tenant": t.Name, "generation": t.Generation})
}

func (s *Server) handleEvict(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	if !s.tenants.Evict(name) {
		s.httpError(w, http.StatusNotFound, "unknown tenant %q", name)
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
