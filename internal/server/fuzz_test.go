package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"

	"impala"
)

// The handlers are a trust boundary: the body and the tenant path element of
// a request are whatever a client sends. Each handler's fuzz target drives it
// through httptest, over one small binary tenant and one scored tenant, and
// holds it to three things: it does not panic, it answers with a status its
// endpoint documents, and it allocates less than slack + perByte bytes per
// byte of the request's tenant name and body.

// fuzzBodyCap is the /match body limit of the fuzzed server: small enough
// that the fuzzer reaches the 413 path.
const fuzzBodyCap = 4 << 10

// fuzzServer returns a server hosting "web" (binary) and "align" (scored),
// both loaded from artifact files so that /reload has something to reload,
// and seeds f with real and hostile tenant names and bodies.
func fuzzServer(f *testing.F) *Server {
	dir := f.TempDir()
	s := New(Config{Workers: 1, MaxBodyBytes: fuzzBodyCap})
	f.Cleanup(s.Drain)
	for name, m := range map[string]*impala.Machine{
		"web":   compileMachine(f, []string{"GET /", "needle", "ab+a"}),
		"align": compileScoredMachine(f),
	} {
		if _, err := s.Tenants().LoadFile(name, writeArtifact(f, m, dir, name+".impala")); err != nil {
			f.Fatal(err)
		}
	}
	for _, tenant := range []string{"web", "align", "", "nope", "..", "a/b", "/", "web\x00", "\xff"} {
		for _, body := range []string{"", "GET /index needle abbba", "ACGTACGTTTGACCATACGAACGT", strings.Repeat("needle ", fuzzBodyCap/8), strings.Repeat("x", fuzzBodyCap+1)} {
			f.Add(tenant, []byte(body))
		}
	}
	return s
}

// checkHandler POSTs body to the handler with the tenant as its path
// element — set on the request, as the mux sets it, so that every name
// reaches the handler, "" and "/" included — and holds the handler to its
// status set and its allocation budget.
func checkHandler(t *testing.T, handler http.HandlerFunc, endpoint, tenant string, body []byte, statuses []int, perByte, slack uint64) {
	req := httptest.NewRequest("POST", "/v1/tenant/"+endpoint, bytes.NewReader(body))
	req.SetPathValue("tenant", tenant)
	w := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	handler(w, req)
	runtime.ReadMemStats(&after)
	if !slices.Contains(statuses, w.Code) {
		t.Fatalf("/%s of %d bytes for tenant %q: status %d, want one of %v", endpoint, len(body), tenant, w.Code, statuses)
	}
	n := uint64(len(tenant) + len(body))
	if got, budget := after.TotalAlloc-before.TotalAlloc, slack+perByte*n; got > budget {
		t.Fatalf("/%s of %d bytes for tenant %q: allocated %d bytes, budget %d (%d KB + %d·%d)", endpoint, len(body), tenant, got, budget, slack>>10, perByte, n)
	}
}

// FuzzMatchHandler: 200, 400, 404, 413, 503 or 504, and 64 KB + 128 bytes a
// request byte — the body's buffer, the engine's rows and their encoding.
func FuzzMatchHandler(f *testing.F) {
	s := fuzzServer(f)
	f.Fuzz(func(t *testing.T, tenant string, body []byte) {
		checkHandler(t, s.handleMatch, "match", tenant, body, []int{200, 400, 404, 413, 503, 504}, 128, 64<<10)
	})
}

// FuzzStreamHandler: 200, 404 or 503, and 128 KB + 64 bytes a request byte —
// a stream's session and its rows.
func FuzzStreamHandler(f *testing.F) {
	s := fuzzServer(f)
	f.Fuzz(func(t *testing.T, tenant string, body []byte) {
		checkHandler(t, s.handleStream, "stream", tenant, body, []int{200, 404, 503}, 64, 128<<10)
	})
}

// FuzzReloadHandler: 200 or 409, and 1 MB + 64 bytes a request byte — a
// reload rebuilds a tenant's machine from its artifact, whatever the body.
func FuzzReloadHandler(f *testing.F) {
	s := fuzzServer(f)
	f.Fuzz(func(t *testing.T, tenant string, body []byte) {
		checkHandler(t, s.handleReload, "reload", tenant, body, []int{200, 409}, 64, 1<<20)
	})
}
