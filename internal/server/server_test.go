package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"impala"
	"impala/internal/obs"
	"impala/internal/sim"
)

func compileMachine(t testing.TB, patterns []string) *impala.Machine {
	t.Helper()
	m, err := impala.CompileRegex(patterns, impala.DefaultConfig())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return m
}

func writeArtifact(t testing.TB, m *impala.Machine, dir, name string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := m.Artifact().WriteFile(path); err != nil {
		t.Fatalf("write artifact: %v", err)
	}
	return path
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain()
	})
	return s, ts
}

func postMatch(t *testing.T, ts *httptest.Server, tenant string, body []byte) (int, matchResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/"+tenant+"/match", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	var mr matchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	return resp.StatusCode, mr
}

// TestMatchAgainstInProcess is the serving acceptance property: the HTTP
// /match result over an artifact-loaded tenant is identical to the
// in-process match on the machine that produced the artifact.
func TestMatchAgainstInProcess(t *testing.T) {
	m := compileMachine(t, []string{"GET /", "needle", "ab+a"})
	path := writeArtifact(t, m, t.TempDir(), "web.impala")
	s, ts := newTestServer(t, Config{})
	if _, err := s.Tenants().LoadFile("web", path); err != nil {
		t.Fatal(err)
	}

	input := []byte("GET /index abba needle abbbba GET needle /")
	want := m.Match(input)
	// The serving boundary emits rows in canonical (end, pattern) order.
	sort.Slice(want, func(i, j int) bool {
		if want[i].End != want[j].End {
			return want[i].End < want[j].End
		}
		return want[i].Pattern < want[j].Pattern
	})

	code, mr := postMatch(t, ts, "web", input)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if mr.Tenant != "web" || mr.Generation != 1 || mr.Bytes != len(input) {
		t.Fatalf("bad envelope: %+v", mr)
	}
	if len(mr.Matches) != len(want) {
		t.Fatalf("got %d matches, want %d: %v vs %v", len(mr.Matches), len(want), mr.Matches, want)
	}
	for i, w := range want {
		if mr.Matches[i].End != w.End || mr.Matches[i].Pattern != w.Pattern {
			t.Fatalf("match %d: got %+v, want %+v", i, mr.Matches[i], w)
		}
	}
}

func TestMatchErrorPaths(t *testing.T) {
	m := compileMachine(t, []string{"x"})
	s, ts := newTestServer(t, Config{MaxBodyBytes: 64})
	s.Tenants().Install("t", m)

	if code, _ := postMatch(t, ts, "nosuch", []byte("x")); code != http.StatusNotFound {
		t.Fatalf("unknown tenant: status %d, want 404", code)
	}
	if code, _ := postMatch(t, ts, "t", bytes.Repeat([]byte("y"), 65)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", code)
	}
	resp, err := http.Get(ts.URL + "/v1/t/match")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET match: status %d, want 405", resp.StatusCode)
	}
}

// streamClient drives one chunked /stream request, feeding input in small
// writes, and returns the match lines and the final summary.
func streamClient(ts *httptest.Server, tenant string, input []byte, chunk int) ([]matchJSON, streamDone, error) {
	pr, pw := io.Pipe()
	req, err := http.NewRequest("POST", ts.URL+"/v1/"+tenant+"/stream", pr)
	if err != nil {
		return nil, streamDone{}, err
	}
	go func() {
		for off := 0; off < len(input); off += chunk {
			end := off + chunk
			if end > len(input) {
				end = len(input)
			}
			if _, err := pw.Write(input[off:end]); err != nil {
				return
			}
			// Yield so chunks actually interleave across clients.
			time.Sleep(time.Millisecond)
		}
		pw.Close()
	}()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, streamDone{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, streamDone{}, fmt.Errorf("status %d", resp.StatusCode)
	}
	var matches []matchJSON
	var done streamDone
	sawDone := false
	dec := json.NewDecoder(resp.Body)
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			if err == io.EOF {
				break
			}
			return nil, streamDone{}, err
		}
		if bytes.Contains(raw, []byte(`"done"`)) {
			if err := json.Unmarshal(raw, &done); err != nil {
				return nil, streamDone{}, err
			}
			sawDone = true
			continue
		}
		var mj matchJSON
		if err := json.Unmarshal(raw, &mj); err != nil {
			return nil, streamDone{}, err
		}
		matches = append(matches, mj)
	}
	if !sawDone {
		return nil, streamDone{}, fmt.Errorf("stream ended without a done line")
	}
	return matches, done, nil
}

func TestStreamEndpoint(t *testing.T) {
	m := compileMachine(t, []string{"needle"})
	s, ts := newTestServer(t, Config{})
	s.Tenants().Install("t", m)

	input := []byte(strings.Repeat("hay needle stack ", 40))
	want := m.Match(input)
	got, done, err := streamClient(ts, "t", input, 7)
	if err != nil {
		t.Fatal(err)
	}
	if done.Bytes != int64(len(input)) || done.Matches != int64(len(got)) || !done.Done {
		t.Fatalf("bad summary: %+v for %d matches", done, len(got))
	}
	if len(got) != len(want) {
		t.Fatalf("got %d matches, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].End != w.End || got[i].Pattern != w.Pattern {
			t.Fatalf("match %d: got %+v, want %+v", i, got[i], w)
		}
	}
}

// TestConcurrentStreamsWithHotReload is the serving stress acceptance: two
// tenants, many concurrent chunked streaming clients, and a mid-run
// hot-reload of one tenant. Every stream must complete with exactly the
// matches of its tenant's machine, race-free (run under -race in CI).
func TestConcurrentStreamsWithHotReload(t *testing.T) {
	dir := t.TempDir()
	mWeb := compileMachine(t, []string{"GET /", "POST /"})
	mIDS := compileMachine(t, []string{"attack", "evil"})
	webPath := writeArtifact(t, mWeb, dir, "web.impala")
	idsPath := writeArtifact(t, mIDS, dir, "ids.impala")

	s, ts := newTestServer(t, Config{MaxStreams: 64})
	if _, err := s.Tenants().LoadFile("web", webPath); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Tenants().LoadFile("ids", idsPath); err != nil {
		t.Fatal(err)
	}

	webInput := []byte(strings.Repeat("GET /a POST /b xx ", 60))
	idsInput := []byte(strings.Repeat("an evil attack here ", 60))
	webWant := mWeb.Match(webInput)
	idsWant := mIDS.Match(idsInput)

	const clients = 12
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		tenant, input, want := "web", webInput, webWant
		if i%2 == 1 {
			tenant, input, want = "ids", idsInput, idsWant
		}
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			got, done, err := streamClient(ts, tenant, input, 16)
			if err != nil {
				errs <- fmt.Errorf("client %d (%s): %v", id, tenant, err)
				return
			}
			if done.Bytes != int64(len(input)) {
				errs <- fmt.Errorf("client %d (%s): fed %d bytes, server saw %d", id, tenant, len(input), done.Bytes)
				return
			}
			if len(got) != len(want) {
				errs <- fmt.Errorf("client %d (%s): %d matches, want %d", id, tenant, len(got), len(want))
				return
			}
			for j, w := range want {
				if got[j].End != w.End || got[j].Pattern != w.Pattern {
					errs <- fmt.Errorf("client %d (%s): match %d is %+v, want %+v", id, tenant, j, got[j], w)
					return
				}
			}
		}(i)
	}

	// Hot-reload the web tenant while the streams are mid-flight: in-flight
	// connections keep their snapshot; the registry moves to generation 2.
	time.Sleep(10 * time.Millisecond)
	resp, err := http.Post(ts.URL+"/v1/web/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rl struct {
		Tenant     string `json:"tenant"`
		Generation int    `json:"generation"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rl); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rl.Generation != 2 {
		t.Fatalf("reload: status %d, generation %d", resp.StatusCode, rl.Generation)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Post-reload requests serve from the new generation.
	code, mr := postMatch(t, ts, "web", webInput)
	if code != http.StatusOK || mr.Generation != 2 {
		t.Fatalf("post-reload match: status %d, generation %d", code, mr.Generation)
	}
}

func TestStreamLimit(t *testing.T) {
	m := compileMachine(t, []string{"x"})
	s, ts := newTestServer(t, Config{MaxStreams: 1})
	s.Tenants().Install("t", m)

	pr, pw := io.Pipe()
	req, _ := http.NewRequest("POST", ts.URL+"/v1/t/stream", pr)
	respc := make(chan *http.Response, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			respc <- resp
		}
	}()
	// Wait until the first stream holds the slot.
	deadline := time.Now().Add(2 * time.Second)
	for s.cfg.MaxStreams-len(s.streamSem) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("first stream never started")
		}
		time.Sleep(time.Millisecond)
	}
	resp2, err := http.Post(ts.URL+"/v1/t/stream", "", strings.NewReader("zz"))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second stream: status %d, want 503", resp2.StatusCode)
	}
	pw.Close()
	resp := <-respc
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

func TestReloadAndEvictErrors(t *testing.T) {
	m := compileMachine(t, []string{"x"})
	s, ts := newTestServer(t, Config{})
	s.Tenants().Install("direct", m)

	// Reloading a tenant installed without an artifact path must fail 409
	// and leave it serving.
	resp, err := http.Post(ts.URL+"/v1/direct/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("reload direct: status %d, want 409", resp.StatusCode)
	}
	if code, _ := postMatch(t, ts, "direct", []byte("x")); code != http.StatusOK {
		t.Fatalf("tenant lost after failed reload: %d", code)
	}

	resp, err = http.Post(ts.URL+"/v1/ghost/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("reload ghost: status %d, want 409", resp.StatusCode)
	}

	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/direct", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("evict: status %d, want 204", resp.StatusCode)
	}
	if code, _ := postMatch(t, ts, "direct", []byte("x")); code != http.StatusNotFound {
		t.Fatalf("evicted tenant still serving: %d", code)
	}
	req, _ = http.NewRequest("DELETE", ts.URL+"/v1/direct", nil)
	resp, _ = http.DefaultClient.Do(req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double evict: status %d, want 404", resp.StatusCode)
	}
}

func TestTenantsListing(t *testing.T) {
	m := compileMachine(t, []string{"x"})
	path := writeArtifact(t, m, t.TempDir(), "a.impala")
	s, ts := newTestServer(t, Config{})
	if _, err := s.Tenants().LoadFile("alpha", path); err != nil {
		t.Fatal(err)
	}
	s.Tenants().Install("beta", m)

	resp, err := http.Get(ts.URL + "/v1/tenants")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rows []tenantJSON
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Name != "alpha" || rows[1].Name != "beta" {
		t.Fatalf("bad listing: %+v", rows)
	}
	if rows[0].Path == "" || rows[0].States <= 0 || rows[0].Stride <= 0 {
		t.Fatalf("alpha row missing artifact detail: %+v", rows[0])
	}
}

func TestDrainRejectsAndHealthz(t *testing.T) {
	m := compileMachine(t, []string{"x"})
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Tenants().Install("t", m)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	s.Drain()

	if code, _ := postMatch(t, ts, "t", []byte("x")); code != http.StatusServiceUnavailable {
		t.Fatalf("match while draining: %d, want 503", code)
	}
	resp, err = http.Post(ts.URL+"/v1/t/stream", "", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stream while draining: %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", resp.StatusCode)
	}
}

func TestDrainWaitsForStreams(t *testing.T) {
	m := compileMachine(t, []string{"x"})
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Tenants().Install("t", m)

	pr, pw := io.Pipe()
	req, _ := http.NewRequest("POST", ts.URL+"/v1/t/stream", pr)
	respc := make(chan *http.Response, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			respc <- resp
		}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for len(s.streamSem) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stream never started")
		}
		time.Sleep(time.Millisecond)
	}

	drained := make(chan struct{})
	go func() { s.Drain(); close(drained) }()
	select {
	case <-drained:
		t.Fatal("Drain returned while a stream was still open")
	case <-time.After(30 * time.Millisecond):
	}
	pw.Write([]byte("xx"))
	pw.Close()
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain never completed after the stream ended")
	}
	resp := <-respc
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

func TestMetricsBound(t *testing.T) {
	reg := obs.NewRegistry()
	m := compileMachine(t, []string{"x"})
	s, ts := newTestServer(t, Config{Metrics: reg})
	s.Tenants().Install("t", m)
	postMatch(t, ts, "t", []byte("xx"))
	snap := reg.Snapshot()
	if snap.Counters["serve_match_requests_total"] != 1 {
		t.Fatalf("match counter: %v", snap.Counters["serve_match_requests_total"])
	}
	if snap.Gauges["serve_tenants"] != 1 {
		t.Fatalf("tenant gauge: %v", snap.Gauges["serve_tenants"])
	}
	if snap.Counters["serve_bytes_in_total"] != 2 {
		t.Fatalf("bytes counter: %v", snap.Counters["serve_bytes_in_total"])
	}
	if snap.Histograms["serve_match_latency_ns"].Count != 1 {
		t.Fatalf("latency histogram: %+v", snap.Histograms["serve_match_latency_ns"])
	}
}

// TestMatchHandlerAllocs pins the steady-state allocation cost of the
// one-shot /match path. The pooled scratch recycles the per-request
// buffers and the codec encodes without allocating, so what remains is the
// engine run (128 rows: its dedup map and result slice), the recorder and
// net/http plumbing — the limit is the reading (46) plus a tenth.
func TestMatchHandlerAllocs(t *testing.T) {
	m := compileMachine(t, []string{"GET /", "needle"})
	s := New(Config{Workers: 1})
	t.Cleanup(s.Drain)
	s.Tenants().Install("alloc", m)
	h := s.Handler()
	input := bytes.Repeat([]byte("GET /index needle "), 64)

	run := func() {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/v1/alloc/match", bytes.NewReader(input))
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("match status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
	run() // warm the pools and the engine cache

	allocs := fewestAllocs(run)
	t.Logf("allocs per /match request: %.1f", allocs)
	const limit = 50
	if allocs > limit {
		t.Errorf("/match allocates %.1f objects per request, want <= %d", allocs, limit)
	}
}

// deafWriter is the response side of a client that stops reading: once deaf
// is set every Write fails, and nothing else happens. (net/http's HTTP/1
// writer also closes the connection on a failed write, which breaks the body
// read too; a handler must not count on that — behind a wrapping
// ResponseWriter or another protocol the upload stays readable.)
type deafWriter struct {
	h     http.Header
	deaf  atomic.Bool
	wrote atomic.Int64
}

func (w *deafWriter) Header() http.Header { return w.h }
func (w *deafWriter) WriteHeader(int)     {}
func (w *deafWriter) Flush()              {}
func (w *deafWriter) Write(b []byte) (int, error) {
	if w.deaf.Load() {
		return 0, syscall.EPIPE
	}
	w.wrote.Add(int64(len(b)))
	return len(b), nil
}

// A client that goes away mid-stream must not leave its session open: the
// handler ends it (sim_active_streams is opened minus flushed, so an
// abandoned session would hold the gauge up for good) and returns, on binary
// and scored tenants alike — whether the client disconnected mid-body, or
// stopped reading while its upload goes on: the first failed response write
// ends the stream, the handler does not scan the rest of the body for no one.
func TestStreamAbortEndsSession(t *testing.T) {
	reg := obs.NewRegistry()
	sim.EnableMetrics(reg)
	t.Cleanup(func() { sim.EnableMetrics(nil) })
	live := func() int64 { return reg.Snapshot().Gauges["sim_active_streams"] }
	settle := func(t *testing.T, what string, done func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !done(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d live streams, %d goroutines", what, live(), runtime.NumGoroutine())
			}
		}
	}
	for _, tc := range []struct {
		name string
		m    *impala.Machine
		body string
	}{
		{"binary", compileMachine(t, []string{"needle"}), "hay needle hay"},
		// The exact read is still inside the collision window at the abort.
		{"scored", compileScoredMachine(t), "GGGGACGTACGT"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{})
			s.Tenants().Install("t", tc.m)
			if _, _, err := streamClient(ts, "t", []byte(tc.body), 4); err != nil {
				t.Fatal(err)
			}
			before, goroutines := live(), runtime.NumGoroutine()
			for i := 0; i < 8; i++ {
				conn, err := net.Dial("tcp", ts.Listener.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				// One chunk of a chunked body, and never the terminating one.
				fmt.Fprintf(conn, "POST /v1/t/stream HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n%x\r\n%s\r\n", len(tc.body), tc.body)
				settle(t, "stream never opened", func() bool { return live() == before+1 })
				conn.Close()
				settle(t, "aborted stream still open", func() bool { return live() == before })
			}
			settle(t, "handlers still running", func() bool { return runtime.NumGoroutine() <= goroutines+2 })

			// The client that stops reading while its upload goes on: every
			// chunk completes a row (the padding retires the scored read's
			// window), so the first chunk fed after it went deaf fails a write,
			// and that must end the stream — the upload never does.
			chunk := []byte(tc.body + strings.Repeat("C", 16))
			pr, pw := io.Pipe()
			w := &deafWriter{h: http.Header{}}
			returned := make(chan struct{})
			go func() {
				defer close(returned)
				s.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/v1/t/stream", pr))
			}()
			go func() {
				for {
					if _, err := pw.Write(chunk); err != nil {
						return
					}
				}
			}()
			settle(t, "stream never flowed", func() bool { return live() == before+1 && w.wrote.Load() > 0 })
			w.deaf.Store(true)
			timer := time.NewTimer(5 * time.Second)
			defer timer.Stop()
			select {
			case <-returned:
			case <-timer.C:
				t.Error("handler still scanning a stream whose client stopped reading")
			}
			pr.Close() // stops the uploader, which never reached its end
			<-returned
			if live() != before {
				t.Fatalf("stream to a deaf client left %d sessions open", live()-before)
			}
		})
	}
}
