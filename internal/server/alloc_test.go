package server

import (
	"bytes"
	"math"
	"net/http"
	"testing"
)

// nullWriter is a ResponseWriter that costs nothing itself, so AllocsPerRun
// over a handler reads the handler's own allocations (and the mux's).
type nullWriter struct {
	h      http.Header
	code   int
	writes int
	n      int
}

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) WriteHeader(code int)        { w.code = code }
func (w *nullWriter) Flush()                      {}
func (w *nullWriter) Write(b []byte) (int, error) { w.writes++; w.n += len(b); return len(b), nil }

// replayBody is a request body that can be rewound, so one request value
// serves every run of an allocation measurement.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// handlerAllocs returns the allocations of one steady-state POST of body to
// path, and the null writer's view of the last response. A non-empty reqID
// rides in as X-Request-Id.
func handlerAllocs(t *testing.T, h http.Handler, path string, body []byte, reqID string) (float64, *nullWriter) {
	t.Helper()
	rb := &replayBody{}
	req, err := http.NewRequest("POST", path, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Body = rb
	if reqID != "" {
		req.Header.Set(requestIDHeader, reqID)
	}
	w := &nullWriter{h: http.Header{}}
	run := func() {
		rb.Reset(body)
		clear(w.h)
		*w = nullWriter{h: w.h}
		h.ServeHTTP(w, req)
	}
	run() // warm the pools and the engine cache
	if w.code != 0 && w.code != http.StatusOK {
		t.Fatalf("%s: status %d", path, w.code)
	}
	return fewestAllocs(run), w
}

// fewestAllocs is the steady-state allocation count of run: the fewest of
// many single runs, as the engine packages' pins take it — a sync.Pool may
// drop what it was handed (under the race detector it does so at random), and
// a run that had to refill one says nothing about the code under test.
func fewestAllocs(run func()) float64 {
	fewest := math.Inf(1)
	for i := 0; i < 40; i++ {
		fewest = min(fewest, testing.AllocsPerRun(1, run))
	}
	return fewest
}

// TestMatchHandlerZeroRowAllocs pins what a /match request costs when there
// is nothing to report: the deadline context (5 objects), the pool task (2),
// the mux's path match (1) and the Content-Length header (1). Everything the
// handler itself needs — body, engine task, rows, response — is in the pooled
// scratch, and the engine's reports in a pooled buffer, so a dense request,
// binary or scored, costs at most 2 objects more than a quiet one, however
// many rows it reports. A request that arrives without an identifier pays two
// more for the minted one (the string and its header slice).
func TestMatchHandlerZeroRowAllocs(t *testing.T) {
	s := New(Config{Workers: 1})
	t.Cleanup(s.Drain)
	s.Tenants().Install("web", compileMachine(t, []string{"GET /", "needle"}))
	s.Tenants().Install("align", compileScoredMachine(t))

	quiet := bytes.Repeat([]byte("x"), 1024)
	none, w := handlerAllocs(t, s.Handler(), "/v1/web/match", quiet, "client-7")
	if w.writes != 1 || w.h.Get("Content-Length") == "" || w.h.Get(requestIDHeader) != "client-7" {
		t.Fatalf("response: %d writes, headers %v", w.writes, w.h)
	}
	minted, _ := handlerAllocs(t, s.Handler(), "/v1/web/match", quiet, "")
	t.Logf("zero-row /match: %.0f objects with an inbound request ID, %.0f minting one", none, minted)
	if none > 9 {
		t.Errorf("zero-row /match allocates %.0f objects, want <= 9", none)
	}
	if minted-none > 2 {
		t.Errorf("minting a request ID costs %.0f objects, want <= 2", minted-none)
	}
	for _, tc := range []struct {
		name, tenant string
		body         []byte
		rows         int
	}{
		{"binary, 1,024 rows", "web", bytes.Repeat([]byte("xxxxxxxxxxneedle"), 1024), 1024},
		{"scored, 640 rows", "align", scoredMatchBody, 640},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := "/v1/" + tc.tenant + "/match"
			if rows := countRows(t, s.Handler(), path, tc.body); rows != tc.rows {
				t.Fatalf("body reports %d rows, want %d", rows, tc.rows)
			}
			many, _ := handlerAllocs(t, s.Handler(), path, tc.body, "client-7")
			t.Logf("/match: %.0f objects with no rows, %.0f with %d", none, many, tc.rows)
			if many-none > 2 {
				t.Errorf("%d rows cost %.0f objects more than none, want <= 2", tc.rows, many-none)
			}
		})
	}
}

// TestStreamHandlerAllocs: what a /stream costs does not depend on how many
// rows it reports — rows are appended to a pooled buffer, not boxed and
// encoded one by one. A quiet binary stream costs at most 19 objects:
// net/http's, the session's and the handler's closures. A scored one adds the
// scored engine's 4 (the engine, its score buffers, its gate and its lane),
// and its window, which defers each row over several cycles, holds more
// matches at once, so its slice grows once more under dense traffic.
func TestStreamHandlerAllocs(t *testing.T) {
	s := New(Config{})
	t.Cleanup(s.Drain)
	s.Tenants().Install("binary", compileMachine(t, []string{"needle"}))
	s.Tenants().Install("scored", compileScoredMachine(t))
	quiet := bytes.Repeat([]byte("x"), 64<<10)
	for _, tc := range []struct {
		tenant      string
		dense       []byte // 4,096 rows or more
		row         string // the shortest row dense reports
		quiet, rows float64
	}{
		{"binary", bytes.Repeat([]byte("xxxxxxxxxxneedle"), 4096), `{"end":0,"pattern":0}`, 19, 2},
		{"scored", bytes.Repeat([]byte("xxxxxxxxACGTACGT"), 4096), `{"end":0,"pattern":0,"score":5}`, 23, 3},
	} {
		t.Run(tc.tenant, func(t *testing.T) {
			path := "/v1/" + tc.tenant + "/stream"
			none, w := handlerAllocs(t, s.Handler(), path, quiet, "")
			if w.n != len(`{"done":true,"bytes":65536,"matches":0}`+"\n") {
				t.Fatalf("quiet stream wrote %d bytes", w.n)
			}
			many, w := handlerAllocs(t, s.Handler(), path, tc.dense, "")
			if w.n < 4096*len(tc.row+"\n") {
				t.Fatalf("dense stream wrote %d bytes: not 4,096 rows", w.n)
			}
			t.Logf("/stream: %.0f objects with no rows, %.0f with 4,096 or more", none, many)
			if none > tc.quiet {
				t.Errorf("a quiet stream costs %.0f objects, want <= %.0f", none, tc.quiet)
			}
			if many-none > tc.rows {
				t.Errorf("4,096 rows cost %.0f objects more than none, want <= %.0f", many-none, tc.rows)
			}
		})
	}
}
