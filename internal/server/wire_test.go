package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"

	"impala/internal/automata"
)

// The document types the codec replaced. They are the oracle: every append*
// in wire.go must write what encoding/json writes for these (TestWireEncode,
// FuzzWireEncode), and the other tests decode responses through them, as a
// client with a JSON library would.

// matchResponse is the one-shot result document.
type matchResponse struct {
	Tenant     string      `json:"tenant"`
	Generation int         `json:"generation"`
	Bytes      int         `json:"bytes"`
	Matches    []matchJSON `json:"matches"`
	ElapsedUS  int64       `json:"elapsed_us"`
}

// matchJSON is one report row, of a /match document or as a /stream line.
// Score is present on scored tenants only.
type matchJSON struct {
	End     int      `json:"end"`
	Pattern int      `json:"pattern"`
	Score   *float64 `json:"score,omitempty"`
}

// streamDone is the final NDJSON line of a /stream response.
type streamDone struct {
	Done    bool  `json:"done"`
	Bytes   int64 `json:"bytes"`
	Matches int64 `json:"matches"`
}

// clusterStreamDone is the frontend's final NDJSON stream line.
type clusterStreamDone struct {
	Done          bool     `json:"done"`
	Bytes         int64    `json:"bytes"`
	Matches       int64    `json:"matches"`
	Partial       bool     `json:"partial,omitempty"`
	FailedWorkers []string `json:"failed_workers,omitempty"`
}

// partialResponse is the frontend's 502 document (partialDoc, decoded).
type partialResponse struct {
	Error         string      `json:"error"`
	Tenant        string      `json:"tenant"`
	FailedWorkers []string    `json:"failed_workers"`
	Bytes         int         `json:"bytes"`
	Matches       []matchJSON `json:"matches"`
}

// sortRows puts rows in the canonical (end, pattern) order.
func sortRows(rows []matchJSON) {
	slices.SortFunc(rows, func(a, b matchJSON) int {
		if a.End != b.End {
			return a.End - b.End
		}
		return a.Pattern - b.Pattern
	})
}

// jsonLine is what json.Encoder.Encode writes for v.
func jsonLine(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	return append(b, '\n')
}

// wireCase is one point of the codec's input space: a tenant, an envelope,
// one row (repeated to make a row list), a stream summary.
type wireCase struct {
	tenant               string
	generation, nbytes   int
	end, pattern         int
	score                float64
	elapsed, sum, nmatch int64
	failed               string // comma-separated worker names
}

// checkWireEncode holds every encoder against encoding/json on c, and the
// parsers against the encoders.
func checkWireEncode(t testing.TB, c wireCase) {
	t.Helper()
	eq := func(what string, got, want []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Fatalf("%s diverges from encoding/json on %+v:\n got %q\nwant %q", what, c, got, want)
		}
	}
	score := c.score
	plain := matchJSON{End: c.end, Pattern: c.pattern}
	scored := matchJSON{End: c.end, Pattern: c.pattern, Score: &score}
	eq("appendMatchRow", append(appendMatchRow(nil, c.end, c.pattern), '\n'), jsonLine(t, plain))
	eq("appendScoredRow", append(appendScoredRow(nil, c.end, c.pattern, c.score), '\n'), jsonLine(t, scored))
	eq("appendJSONString", append(appendJSONString(nil, c.tenant), '\n'), jsonLine(t, c.tenant))
	eq("appendStreamDone", appendStreamDone(nil, c.sum, c.nmatch), jsonLine(t, streamDone{Done: true, Bytes: c.sum, Matches: c.nmatch}))

	var failed []string
	var failedJSON [][]byte
	for _, name := range strings.FieldsFunc(c.failed, func(r rune) bool { return r == ',' }) {
		failed = append(failed, name)
		failedJSON = append(failedJSON, appendJSONString(nil, name))
	}
	eq("appendClusterDone", appendClusterDone(nil, c.sum, c.nmatch, failedJSON), jsonLine(t, clusterStreamDone{
		Done: true, Bytes: c.sum, Matches: c.nmatch, Partial: len(failed) > 0, FailedWorkers: failed}))

	// Documents of zero, one and three rows (three: ascending, as a handler
	// sorts them), of either kind.
	tenantJSON := appendJSONString(nil, c.tenant)
	for _, kind := range []matchJSON{plain, scored} {
		for _, n := range []int{0, 1, 3} {
			if n > 1 && c.pattern > math.MaxInt-n {
				continue
			}
			want := matchResponse{Tenant: c.tenant, Generation: c.generation, Bytes: c.nbytes,
				Matches: []matchJSON{}, ElapsedUS: c.elapsed}
			doc := appendMatchHead(nil, tenantJSON, c.generation, c.nbytes)
			for i := 0; i < n; i++ {
				row := kind
				row.Pattern += i
				want.Matches = append(want.Matches, row)
				if i > 0 {
					doc = append(doc, ',')
				}
				if row.Score != nil {
					doc = appendScoredRow(doc, row.End, row.Pattern, *row.Score)
				} else {
					doc = appendMatchRow(doc, row.End, row.Pattern)
				}
			}
			doc = appendMatchTail(doc, c.elapsed)
			eq("the /match document", doc, jsonLine(t, want))

			got, err := parseMatchDoc(doc, tenantJSON, nil)
			if err != nil {
				t.Fatalf("parseMatchDoc refuses the encoder's %q: %v", doc, err)
			}
			if got.generation != c.generation || got.bytes != c.nbytes || got.elapsedUS != c.elapsed ||
				len(got.rows) != n || got.scored != (n > 0 && kind.Score != nil) {
				t.Fatalf("parseMatchDoc(%q) = %+v", doc, got)
			}
			for i, row := range got.rows {
				w := want.Matches[i]
				if row.End != w.End || row.Pattern != w.Pattern ||
					w.Score != nil && math.Float64bits(row.Score) != math.Float64bits(*w.Score) {
					t.Fatalf("parseMatchDoc(%q) row %d = %+v, want %+v", doc, i, row, w)
				}
			}
		}
	}

	// A stream of c.nmatch rows (capped) and its done line.
	for _, kind := range []matchJSON{plain, scored} {
		var body []byte
		n := min(max(c.nmatch, 0), 3)
		for i := int64(0); i < n; i++ {
			body = append(body, jsonLine(t, kind)...)
		}
		body = appendStreamDone(body, c.sum, n)
		var p streamParser
		relay, used, err := p.feed(body)
		if err != nil || !p.done || used != len(body) || p.rows != n || p.matches != n || p.bytes != c.sum ||
			relay != len(body)-len(appendStreamDone(nil, c.sum, n)) {
			t.Fatalf("streamParser.feed(%q) = relay %d, used %d, %v; %+v", body, relay, used, err, p)
		}
	}
}

var wireTenants = []string{"web", "", "a b", `<script>&"quoted"\`, "tab\there\nnewline\x00\x1f\x7f",
	"line\u2028sep\u2029", "caf\u00e9 \U0001F600", "bad\xffutf\xc3", "\xe2\x80"}

var wireScores = []float64{0, math.Copysign(0, -1), 1, -1, 5, 12.5, -3.25, automata.ScoreLimit, -automata.ScoreLimit,
	1e-6, 1e-7, -1e-7, 1.5e-9, 1e20, 1e21, -1e21, 1.7976931348623157e308, 5e-324, 2.2250738585072014e-308,
	0.1, 1.0 / 3, 123456789012345680000, 0.000001234567890123456789}

var wireInts = []int{0, 1, 7, 100, math.MaxInt32, math.MaxInt, -1, math.MinInt}

// TestWireEncode is the codec-vs-oracle table: every encoder writes what
// encoding/json writes, over the corners of every field.
func TestWireEncode(t *testing.T) {
	base := wireCase{tenant: "web", generation: 1, nbytes: 1024, end: 17, pattern: 3, score: 5, elapsed: 42, sum: 1024, nmatch: 2}
	for _, tenant := range wireTenants {
		c := base
		c.tenant, c.failed = tenant, tenant+",n1"
		checkWireEncode(t, c)
	}
	for _, score := range wireScores {
		c := base
		c.score = score
		checkWireEncode(t, c)
	}
	for _, v := range wireInts {
		c := base
		c.end, c.pattern, c.generation, c.nbytes = v, v, v, v
		c.elapsed, c.sum, c.nmatch = int64(v), int64(v), int64(v)
		checkWireEncode(t, c)
	}
}

// FuzzWireEncode is the same property over arbitrary fields.
func FuzzWireEncode(f *testing.F) {
	for i, tenant := range wireTenants {
		f.Add(tenant, 1+i, 1024, wireInts[i%len(wireInts)], i, wireScores[i%len(wireScores)], int64(42), int64(1024), int64(i), "n0,"+tenant)
	}
	for i, score := range wireScores {
		f.Add("web", 1, 16384, 100+i, wireInts[i%len(wireInts)], score, int64(i), int64(16384), int64(2), "")
	}
	f.Fuzz(func(t *testing.T, tenant string, generation, nbytes, end, pattern int, score float64, elapsed, sum, nmatch int64, failed string) {
		if math.IsNaN(score) || math.IsInf(score, 0) {
			t.Skip("scores are finite")
		}
		checkWireEncode(t, wireCase{tenant, generation, nbytes, end, pattern, score, elapsed, sum, nmatch, failed})
	})
}

// parseAllocSlack is what parseMatchDoc may allocate beyond its row slice
// (24 bytes a row): nothing of its own — the slack covers the size class the
// slice is rounded up to and whatever else the process does meanwhile.
const parseAllocSlack = 64 << 10

// checkWireParse holds the parsers to their contract on arbitrary bytes: no
// panic; whatever parseMatchDoc accepts encodes back to the very bytes it
// read (so nothing an encoder cannot have written gets through), agrees with
// encoding/json's reading of them, and cost at most its row slice; and
// streamParser's verdict does not depend on how the bytes were cut up.
func checkWireParse(t testing.TB, tenant string, data []byte) {
	t.Helper()
	tenantJSON := appendJSONString(nil, tenant)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	doc, err := parseMatchDoc(data, tenantJSON, nil)
	runtime.ReadMemStats(&after)
	rows := len(data) / len(`{"end":0,"pattern":0}`) // what a refused input has room for
	if err == nil {
		rows = len(doc.rows)
	}
	if got, budget := after.TotalAlloc-before.TotalAlloc, uint64(parseAllocSlack+24*rows); got > budget {
		t.Fatalf("parseMatchDoc allocated %d bytes on %d input bytes (%d rows), budget %d", got, len(data), rows, budget)
	}
	if err != nil {
		if !errors.Is(err, errWire) {
			t.Fatalf("parseMatchDoc: %v, want errWire", err)
		}
	} else {
		back := appendMatchHead(nil, tenantJSON, doc.generation, doc.bytes)
		var last wireRow
		for i, row := range doc.rows {
			if i > 0 {
				back = append(back, ',')
				if !rowLess(last, row) {
					t.Fatalf("accepted rows out of order: %+v then %+v", last, row)
				}
			}
			if last = row; doc.scored {
				back = appendScoredRow(back, row.End, row.Pattern, row.Score)
			} else {
				back = appendMatchRow(back, row.End, row.Pattern)
			}
		}
		if back = appendMatchTail(back, doc.elapsedUS); !bytes.Equal(back, data) {
			t.Fatalf("accepted a document no encoder writes:\n read %q\nwrote %q", data, back)
		}
		var oracle matchResponse
		if err := json.Unmarshal(data, &oracle); err != nil || len(oracle.Matches) != len(doc.rows) ||
			oracle.Generation != doc.generation || oracle.Bytes != doc.bytes || oracle.ElapsedUS != doc.elapsedUS {
			t.Fatalf("encoding/json reads %q as %+v (%v), the codec as %+v", data, oracle, err, doc)
		}
	}

	var whole streamParser
	relay, used, werr := whole.feed(data)
	if werr == nil {
		if relay > used || used > len(data) || whole.done != (used > relay) || whole.done && used != len(data) {
			t.Fatalf("feed(%q) = relay %d, used %d, done %v", data, relay, used, whole.done)
		}
		// What was accepted re-encodes to itself, line by line.
		var back []byte
		for _, line := range bytes.SplitAfter(data[:relay], []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			var row matchJSON
			if err := json.Unmarshal(line, &row); err != nil || (row.Score != nil) != whole.scored {
				t.Fatalf("accepted stream line %q: %v", line, err)
			}
			back = append(back, jsonLine(t, row)...)
		}
		if whole.done {
			back = appendStreamDone(back, whole.bytes, whole.matches)
		}
		if !bytes.Equal(back, data[:used]) {
			t.Fatalf("accepted a stream no encoder writes:\n read %q\nwrote %q", data[:used], back)
		}
	}
	// The same bytes in two reads, the second carrying the first's remainder.
	var cut streamParser
	half := len(data) / 2
	_, n, cerr := cut.feed(data[:half])
	if cerr == nil && !cut.done {
		_, _, cerr = cut.feed(data[n:])
	} else if cerr == nil && half < len(data) {
		cerr = errWire // bytes after the done line
	}
	if (werr == nil) != (cerr == nil) || werr == nil && (cut.rows != whole.rows || cut.done != whole.done) {
		t.Fatalf("feed(%q): whole %v %+v, cut at %d %v %+v", data, werr, whole, half, cerr, cut)
	}
}

// wireReplies are real worker replies: what the handlers write for a plain,
// a scored, an empty and a 4,096-row body, on /match and on /stream.
func wireReplies(t testing.TB) (tenants []string, replies [][]byte) {
	s := New(Config{})
	t.Cleanup(s.Drain)
	plain := compileMachine(t, []string{"GET /", "needle", "ab+a"})
	s.Tenants().Install("web", plain)
	s.Tenants().Install("a<b>&\u2028", plain)
	s.Tenants().Install("align", compileScoredMachine(t))
	post := func(tenant, endpoint string, body []byte) {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/"+tenant+endpoint, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s%s: status %d: %s", tenant, endpoint, rec.Code, rec.Body)
		}
		name, _ := strings.CutPrefix(tenant, "a%3Cb%3E&%E2%80%A8")
		if name != tenant {
			name = "a<b>&\u2028"
		}
		tenants, replies = append(tenants, name), append(replies, rec.Body.Bytes())
	}
	for _, endpoint := range []string{"/match", "/stream"} {
		post("web", endpoint, []byte("GET /index abba needle abbbba GET needle /"))
		post("web", endpoint, nil)
		post("web", endpoint, []byte("nothing to see"))
		post("web", endpoint, bytes.Repeat([]byte("xxxxxxxxxxneedle"), 4096))
		post("a%3Cb%3E&%E2%80%A8", endpoint, []byte("abba"))
		post("align", endpoint, []byte("GGGGACGTACGTCCCCACGAACGTGGGG"))
	}
	return tenants, replies
}

// wireMutations are the ways a worker reply goes wrong: cut short, a row
// count that lies, a number spelled another way, bytes after the end — and,
// last when the reply has two rows to swap, rows out of order (which only a
// /match document forbids).
func wireMutations(reply []byte) (muts [][]byte, swapped bool) {
	muts = [][]byte{
		reply[:len(reply)/2],
		reply[:len(reply)-1],
		append(append([]byte(nil), reply...), "{}\n"...),
		append(append([]byte(nil), reply...), ' '),
		bytes.Replace(reply, []byte(`"matches":0`), []byte(`"matches":1`), 1),
		bytes.Replace(reply, []byte(`"matches":4096`), []byte(`"matches":4095`), 1),
		bytes.Replace(reply, []byte(`"end":`), []byte(`"end":0`), 1),
		bytes.Replace(reply, []byte(`"pattern":`), []byte(`"pattern":+`), 1),
		bytes.Replace(reply, []byte(`"score":`), []byte(`"score":1e0`), 1),
		bytes.Replace(reply, []byte(`"generation":1`), []byte(`"generation":1.0`), 1),
		bytes.Replace(reply, []byte(`,"matches":[`), []byte(`, "matches":[`), 1),
		bytes.Replace(reply, []byte(`"matches":[]`), []byte(`"matches":null`), 1),
	}
	// Swap the first two rows: same rows, wrong order.
	if i := bytes.Index(reply, []byte(`{"end"`)); i >= 0 {
		if j := bytes.IndexByte(reply[i:], '}'); j >= 0 && len(reply) > i+2*(j+1)+1 && reply[i+j+2] == '{' {
			first, sep := reply[i:i+j+1], reply[i+j+1]
			if k := bytes.IndexByte(reply[i+j+2:], '}'); k >= 0 {
				second := reply[i+j+2 : i+j+2+k+1]
				mut := append([]byte(nil), reply[:i]...)
				mut = append(append(append(mut, second...), sep), first...)
				return append(muts, append(mut, reply[i+j+2+k+1:]...)), true
			}
		}
	}
	return muts, false
}

// TestWireParse runs the parse contract over the real replies and their
// mutations, and checks the mutations that must be refused are.
func TestWireParse(t *testing.T) {
	tenants, replies := wireReplies(t)
	for i, reply := range replies {
		tenantJSON := appendJSONString(nil, tenants[i])
		checkWireParse(t, tenants[i], reply)
		isDoc := bytes.HasPrefix(reply, []byte(`{"tenant"`))
		if isDoc {
			if _, err := parseMatchDoc(reply, tenantJSON, nil); err != nil {
				t.Fatalf("real reply %.80q refused: %v", reply, err)
			}
			if _, err := parseMatchDoc(reply, appendJSONString(nil, tenants[i]+"x"), nil); err == nil {
				t.Fatalf("reply for tenant %q accepted as another's", tenants[i])
			}
		} else {
			var p streamParser
			if _, _, err := p.feed(reply); err != nil || !p.done {
				t.Fatalf("real stream %.80q refused: %v", reply, err)
			}
		}
		muts, swapped := wireMutations(reply)
		for j, mut := range muts {
			checkWireParse(t, tenants[i], mut)
			if bytes.Equal(mut, reply) || !isDoc && swapped && j == len(muts)-1 {
				continue // nothing to change, or a stream's rows in another order
			}
			if isDoc {
				if _, err := parseMatchDoc(mut, tenantJSON, nil); err == nil {
					t.Fatalf("mutated reply accepted: %.120q", mut)
				}
			} else {
				var p streamParser
				if _, _, err := p.feed(mut); err == nil && p.done {
					t.Fatalf("mutated stream accepted: %.120q", mut)
				}
			}
		}
	}
	// A pooled row slice with room is reused, not reallocated.
	rows := make([]wireRow, 0, 8192)
	for i, reply := range replies {
		if doc, err := parseMatchDoc(reply, appendJSONString(nil, tenants[i]), rows); err == nil && len(doc.rows) > 0 && &doc.rows[0] != &rows[:1][0] {
			t.Fatalf("parseMatchDoc did not reuse the caller's rows on reply %d", i)
		}
	}
}

// TestWireParseRefuses spells out inputs the codec must refuse, most of which
// a JSON library reads happily: each is a document or a stream no encoder
// writes.
func TestWireParseRefuses(t *testing.T) {
	const doc = `{"tenant":"web","generation":1,"bytes":42,"matches":[{"end":5,"pattern":0},{"end":15,"pattern":2}],"elapsed_us":17}` + "\n"
	const stream = `{"end":15,"pattern":2}` + "\n" + `{"end":5,"pattern":0}` + "\n" + `{"done":true,"bytes":42,"matches":2}` + "\n"
	web := appendJSONString(nil, "web")
	if _, err := parseMatchDoc([]byte(doc), web, nil); err != nil {
		t.Fatalf("the unmutated document: %v", err)
	}
	if _, _, err := new(streamParser).feed([]byte(stream)); err != nil {
		t.Fatalf("the unmutated stream: %v", err)
	}
	for _, edit := range [][2]string{
		{`{"end":15,"pattern":2}`, `{"end":5,"pattern":0}`},            // a row twice
		{`{"end":15,"pattern":2}`, `{"end":4,"pattern":9}`},            // rows out of order
		{`{"end":15,"pattern":2}`, `{"end":15,"pattern":2,"score":1}`}, // kinds mixed
		{`{"end":15,"pattern":2}`, `{"pattern":2,"end":15}`},           // keys in another order
		{`{"end":15,`, `{"end":15, `},                                  // insignificant space
		{`"bytes":42`, `"bytes":042`},                                  // a leading zero
		{`"bytes":42`, `"bytes":-0`},                                   // negative zero
		{`"bytes":42`, `"bytes":4.2e1`},                                // an integer spelled as a float
		{`"end":15`, `"end":9223372036854775808`},                      // past int64
		{`[{"end":5,"pattern":0},{"end":15,"pattern":2}]`, `null`},     // no array
		{`"tenant":"web"`, `"tenant":"\u0077eb"`},                      // the same name, escaped otherwise
		{`"elapsed_us":17}`, `"elapsed_us":17,"extra":1}`},             // a field more
		{`"elapsed_us":17}` + "\n", `"elapsed_us":17}`},                // no final newline
		{`{"tenant"`, ` {"tenant"`},                                    // leading space
	} {
		mut := strings.Replace(doc, edit[0], edit[1], 1)
		if mut == doc {
			t.Fatalf("edit %q changes nothing", edit)
		}
		if _, err := parseMatchDoc([]byte(mut), web, nil); !errors.Is(err, errWire) {
			t.Errorf("accepted %q: %v", mut, err)
		}
	}
	for _, edit := range [][2]string{
		{`"matches":2`, `"matches":3`},                                                   // a row count that lies
		{`{"done":true`, `{"done":false`},                                                // not done
		{`{"end":5,"pattern":0}`, `{"end":5,"pattern":0,"score":2}`},                     // kinds mixed
		{`{"end":5,"pattern":0}` + "\n", "\n"},                                           // a blank line
		{`"matches":2}` + "\n", `"matches":2}` + "\n" + `{"end":50,"pattern":0}` + "\n"}, // a row after the done line
		{`{"end":5`, `{"end":+5`},                                                        // a plus sign
	} {
		mut := strings.Replace(stream, edit[0], edit[1], 1)
		if mut == stream {
			t.Fatalf("edit %q changes nothing", edit)
		}
		if _, _, err := new(streamParser).feed([]byte(mut)); !errors.Is(err, errWire) {
			t.Errorf("accepted stream %q: %v", mut, err)
		}
	}
}

// TestMergedRows: the frontend's k-way merge writes one row per (end,
// pattern) in canonical order. A pair several workers report is one row: the
// same row on binary runs, and on scored runs the best score, whichever run
// holds it — what a single process folds the reports into.
func TestMergedRows(t *testing.T) {
	for _, tc := range []struct {
		scored bool
		runs   [][]wireRow
		want   string
	}{
		{false, [][]wireRow{{{1, 0, 0}, {4, 2, 0}}, {{1, 0, 0}, {3, 1, 0}, {4, 2, 0}}},
			`{"end":1,"pattern":0},{"end":3,"pattern":1},{"end":4,"pattern":2}`},
		{true, [][]wireRow{{{1, 0, 2}, {4, 2, -1}}, {{1, 0, 5}, {3, 1, 0}, {4, 2, -3}}, {{4, 2, 7}}},
			`{"end":1,"pattern":0,"score":5},{"end":3,"pattern":1,"score":0},{"end":4,"pattern":2,"score":7}`},
	} {
		runs := make([]rowRun, len(tc.runs))
		for i, rows := range tc.runs {
			runs[i] = rowRun{rows: rows, scored: tc.scored}
		}
		if got, n := appendMergedRows(nil, runs); string(got) != tc.want || n != 3 {
			t.Errorf("merged %d rows %s, want 3 rows %s", n, got, tc.want)
		}
	}
}

// FuzzWireParse drives the parsers with arbitrary bytes, from the real
// replies and their mutations.
func FuzzWireParse(f *testing.F) {
	tenants, replies := wireReplies(f)
	for i, reply := range replies {
		f.Add(tenants[i], reply)
		muts, _ := wireMutations(reply)
		for _, mut := range muts {
			f.Add(tenants[i], mut)
		}
	}
	f.Fuzz(func(t *testing.T, tenant string, data []byte) { checkWireParse(t, tenant, data) })
}
