package server

import (
	"bytes"
	"net/http"
	"testing"
)

// benchHandler drives h with steady-state POSTs of body to path through a
// null ResponseWriter and reports, beside ns/op and allocs/op, the handler's
// time per report row (rows is what one response carries).
func benchHandler(b *testing.B, h http.Handler, path string, body []byte, rows int) {
	b.Helper()
	rb := &replayBody{}
	req, err := http.NewRequest("POST", path, nil)
	if err != nil {
		b.Fatal(err)
	}
	req.Body = rb
	w := &nullWriter{h: http.Header{}}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rb.Reset(body)
		clear(w.h)
		*w = nullWriter{h: w.h}
		h.ServeHTTP(w, req)
	}
	b.StopTimer()
	if w.code != 0 && w.code != http.StatusOK {
		b.Fatalf("%s: status %d", path, w.code)
	}
	if rows > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
	}
}

// countRows posts body once and counts the report rows of the response.
func countRows(b testing.TB, h http.Handler, path string, body []byte) int {
	b.Helper()
	w := &rowCounter{nullWriter: nullWriter{h: http.Header{}}}
	req, err := http.NewRequest("POST", path, bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	h.ServeHTTP(w, req)
	return w.rows
}

type rowCounter struct {
	nullWriter
	rows int
}

func (w *rowCounter) Write(p []byte) (int, error) {
	w.rows += bytes.Count(p, []byte(`{"end":`))
	return len(p), nil
}

// scoredMatchBody is 7.5 KiB of reads for compileScoredMachine's tenant, two
// rows a read: 640 rows, dna_scored_match's shape.
var scoredMatchBody = bytes.Repeat([]byte("ACGTACGTGGGGGGGGGGGGGGGG"), 320)

// BenchmarkMatchHandler is the /match handler on the two ends of its range:
// a 1 KiB body with nothing to report (the request's fixed cost — what
// bro_small_match pays) and a scored body of 640 rows (the encode —
// dna_scored_match's shape).
func BenchmarkMatchHandler(b *testing.B) {
	s := New(Config{Workers: 1})
	b.Cleanup(s.Drain)
	s.Tenants().Install("web", compileMachine(b, []string{"GET /", "needle"}))
	s.Tenants().Install("align", compileScoredMachine(b))
	h := s.Handler()

	b.Run("zero-row-1KiB", func(b *testing.B) {
		benchHandler(b, h, "/v1/web/match", bytes.Repeat([]byte("x"), 1024), 0)
	})
	b.Run("scored-640-rows", func(b *testing.B) {
		rows := countRows(b, h, "/v1/align/match", scoredMatchBody)
		if rows != 640 {
			b.Fatalf("body reports %d rows, want 640", rows)
		}
		benchHandler(b, h, "/v1/align/match", scoredMatchBody, rows)
	})
}

// BenchmarkStreamHandler is the /stream handler on exact_dense_stream's
// shape: 256 KiB with a hit every 64 B, 4,096 rows.
func BenchmarkStreamHandler(b *testing.B) {
	s := New(Config{})
	b.Cleanup(s.Drain)
	s.Tenants().Install("web", compileMachine(b, []string{"needle"}))
	body := bytes.Repeat(append(bytes.Repeat([]byte("x"), 58), "needle"...), 4096)
	rows := countRows(b, s.Handler(), "/v1/web/stream", body)
	if rows != 4096 {
		b.Fatalf("body reports %d rows, want 4096", rows)
	}
	benchHandler(b, s.Handler(), "/v1/web/stream", body, rows)
}
