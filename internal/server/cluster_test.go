package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"impala"
	"impala/internal/obs"
	"impala/internal/topo"
	"impala/internal/workload"
)

// clusterFixture is a two-worker deployment of sealed artifacts: a 2-shard
// machine placed onto two domains, one worker process (well, httptest
// server) per domain, a frontend fanning over both, and a single-process
// server over the full artifact as the reference.
type clusterFixture struct {
	machine *impala.Machine // full machine of tenant "web", in-process reference
	path    string          // web's sealed artifact (workers reload from it)
	domains []string
	servers []*Server // the workers', then the single process's
	workers []*httptest.Server
	fe      *Frontend
	feTS    *httptest.Server
	single  *httptest.Server
	reg     *obs.Registry
}

func newClusterFixture(t *testing.T) *clusterFixture {
	t.Helper()
	return newClusterFixtureOf(t, []string{"GET /", "needle", "ab+a", "zz.?zz"})
}

func newClusterFixtureOf(t *testing.T, patterns []string) *clusterFixture {
	t.Helper()
	cfg := impala.DefaultConfig()
	cfg.Shards = 2
	m, err := impala.CompileRegex(patterns, cfg)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	f := &clusterFixture{machine: m, domains: []string{"n0", "n1"}}
	var specs []WorkerSpec
	for _, dom := range f.domains {
		ws, wts := newTestServer(t, Config{})
		f.servers, f.workers = append(f.servers, ws), append(f.workers, wts)
		specs = append(specs, WorkerSpec{Name: dom, URL: wts.URL})
	}

	f.reg = obs.NewRegistry()
	fe, err := NewFrontend(ClusterConfig{
		Workers:        specs,
		HealthInterval: -1, // tests drive CheckWorkers explicitly
		Metrics:        f.reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.fe = fe
	f.feTS = httptest.NewServer(fe.Handler())
	t.Cleanup(func() {
		f.feTS.Close()
		fe.Drain()
	})

	ss, sts := newTestServer(t, Config{})
	f.servers, f.single = append(f.servers, ss), sts
	f.path = f.install(t, "web", m)
	return f
}

// install seals m's artifact with its shard plan placed onto the two domains
// and loads it as the tenant name, on each worker its domain's shards and on
// the single process all of them; it returns the artifact's path.
func (f *clusterFixture) install(t *testing.T, name string, m *impala.Machine) string {
	t.Helper()
	a := m.Artifact()
	tp := topo.Topology{Domains: []topo.Domain{{Name: f.domains[0]}, {Name: f.domains[1]}}}
	mw, err := topo.MergeWeights(a.NFA, a.Shards.Plan)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := topo.Place(a.Shards.Plan, mw, tp, topo.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	a.SetTopo(&topo.Sealed{Topology: tp, ShardDomain: pl.ShardDomain})
	path := filepath.Join(t.TempDir(), name+".impala")
	if err := a.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	for i, dom := range f.domains {
		if _, err := f.servers[i].Tenants().LoadFileDomain(name, path, dom); err != nil {
			t.Fatalf("worker %s: %v", dom, err)
		}
	}
	if _, err := f.servers[len(f.domains)].Tenants().LoadFile(name, path); err != nil {
		t.Fatal(err)
	}
	return path
}

// wantRows is the in-process reference in canonical (end, pattern) order.
func (f *clusterFixture) wantRows(input []byte) []matchJSON {
	var rows []matchJSON
	for _, m := range f.machine.Match(input) {
		rows = append(rows, matchJSON{End: m.End, Pattern: m.Pattern})
	}
	sortRows(rows)
	return rows
}

var clusterInput = []byte(strings.Repeat("GET /idx abba zzAzz needle abbbba GET needle / ", 8))

// TestClusterMergeMatchesSingleProcess is the dispatch acceptance property:
// the frontend's merged one-shot response is indistinguishable from a
// single process hosting every shard — same rows, same order, same
// envelope — and both equal the in-process match.
func TestClusterMergeMatchesSingleProcess(t *testing.T) {
	f := newClusterFixture(t)
	want := f.wantRows(clusterInput)
	if len(want) == 0 {
		t.Fatal("fixture input produces no matches; test is vacuous")
	}

	code, fr := postMatch(t, f.feTS, "web", clusterInput)
	if code != http.StatusOK {
		t.Fatalf("frontend status %d", code)
	}
	scode, sr := postMatch(t, f.single, "web", clusterInput)
	if scode != http.StatusOK {
		t.Fatalf("single-process status %d", scode)
	}

	if !reflect.DeepEqual(fr.Matches, want) {
		t.Fatalf("frontend rows diverge from in-process:\n%v\n%v", fr.Matches, want)
	}
	// Byte-identity of the row payloads across deployment shapes.
	fb, _ := json.Marshal(fr.Matches)
	sb, _ := json.Marshal(sr.Matches)
	if !bytes.Equal(fb, sb) {
		t.Fatalf("merged rows not byte-identical with single process:\n%s\n%s", fb, sb)
	}
	if fr.Tenant != sr.Tenant || fr.Bytes != sr.Bytes || fr.Generation != sr.Generation {
		t.Fatalf("envelopes diverge: %+v vs %+v", fr, sr)
	}

	snap := f.reg.Snapshot()
	if snap.Counters["cluster_match_requests_total"] != 1 {
		t.Fatalf("match counter: %v", snap.Counters)
	}
	if snap.Counters["cluster_worker_requests_total"] != 2 {
		t.Fatalf("worker-leg counter: %v", snap.Counters)
	}
	if got := snap.Counters["cluster_reports_total"]; got != int64(len(want)) {
		t.Fatalf("reports counter %d, want %d", got, len(want))
	}
}

// The facade's one-call domain loader builds the same worker-side machines
// the registry does: per-domain match sets that partition the full machine's.
func TestFacadeDomainLoader(t *testing.T) {
	f := newClusterFixture(t)
	var got []impala.Match
	for _, dom := range f.domains {
		m, err := impala.LoadMachineFileDomain(f.path, dom)
		if err != nil {
			t.Fatalf("domain %s: %v", dom, err)
		}
		got = append(got, m.Match(clusterInput)...)
	}
	want := f.machine.Match(clusterInput)
	for _, ms := range [][]impala.Match{got, want} {
		sort.Slice(ms, func(i, j int) bool {
			if ms[i].End != ms[j].End {
				return ms[i].End < ms[j].End
			}
			return ms[i].Pattern < ms[j].Pattern
		})
	}
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("per-domain matches do not partition the full machine's:\n%v\n%v", got, want)
	}
	if _, err := impala.LoadMachineFileDomain(f.path, "nowhere"); err == nil {
		t.Fatal("unknown domain accepted")
	}
}

// TestClusterWorkerFailurePartial: a dead worker degrades the one-shot
// request to an explicit 502 partial-result document naming the failure —
// never a silently incomplete 200.
func TestClusterWorkerFailurePartial(t *testing.T) {
	f := newClusterFixture(t)
	// The surviving worker's rows are the expected partial payload.
	_, n0 := postMatch(t, f.workers[0], "web", clusterInput)
	f.workers[1].Close()

	resp, err := http.Post(f.feTS.URL+"/v1/web/match", "application/octet-stream", bytes.NewReader(clusterInput))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502", resp.StatusCode)
	}
	var pr partialResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pr.FailedWorkers, []string{"n1"}) {
		t.Fatalf("failed workers %v, want [n1]", pr.FailedWorkers)
	}
	if !strings.Contains(pr.Error, "partial result") || pr.Tenant != "web" || pr.Bytes != len(clusterInput) {
		t.Fatalf("bad partial envelope: %+v", pr)
	}
	sortRows(n0.Matches)
	if !reflect.DeepEqual(pr.Matches, n0.Matches) {
		t.Fatalf("partial rows diverge from surviving worker:\n%v\n%v", pr.Matches, n0.Matches)
	}

	snap := f.reg.Snapshot()
	if snap.Counters["cluster_partial_results_total"] != 1 {
		t.Fatalf("partial counter: %v", snap.Counters)
	}
	if snap.Counters["cluster_worker_errors_total"] == 0 {
		t.Fatalf("worker-error counter: %v", snap.Counters)
	}
}

// TestClusterUnknownTenant: every worker 404s → the frontend surfaces 404,
// not a partial-result 502.
func TestClusterUnknownTenant(t *testing.T) {
	f := newClusterFixture(t)
	if code, _ := postMatch(t, f.feTS, "nosuch", []byte("x")); code != http.StatusNotFound {
		t.Fatalf("unknown tenant: status %d, want 404", code)
	}
}

// clusterStream drives one /stream request against the frontend and decodes
// the cluster done line (which carries the partial fields).
func clusterStream(t *testing.T, ts *httptest.Server, tenant string, input []byte) ([]matchJSON, clusterStreamDone) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/"+tenant+"/stream", "application/octet-stream", bytes.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	var rows []matchJSON
	var done clusterStreamDone
	sawDone := false
	dec := json.NewDecoder(resp.Body)
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			if err == io.EOF {
				break
			}
			t.Fatal(err)
		}
		if bytes.Contains(raw, []byte(`"done"`)) {
			if err := json.Unmarshal(raw, &done); err != nil {
				t.Fatal(err)
			}
			sawDone = true
			continue
		}
		var mj matchJSON
		if err := json.Unmarshal(raw, &mj); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, mj)
	}
	if !sawDone {
		t.Fatal("stream ended without a done line")
	}
	return rows, done
}

// TestClusterStreamFanout: streamed matches from both workers (interleaved
// on the wire, per-worker order preserved) cover exactly the in-process
// match set, and the done line sums the legs.
func TestClusterStreamFanout(t *testing.T) {
	f := newClusterFixture(t)
	want := f.wantRows(clusterInput)

	// Chunked client exercises the tee path; plain POST the simple path.
	got, sdone, err := streamClient(f.feTS, "web", clusterInput, 7)
	if err != nil {
		t.Fatal(err)
	}
	sortRows(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("chunked stream rows diverge:\n%v\n%v", got, want)
	}
	if sdone.Bytes != int64(len(clusterInput)) || sdone.Matches != int64(len(want)) || !sdone.Done {
		t.Fatalf("bad chunked summary: %+v for %d matches", sdone, len(want))
	}

	rows, done := clusterStream(t, f.feTS, "web", clusterInput)
	sortRows(rows)
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("stream rows diverge:\n%v\n%v", rows, want)
	}
	if done.Partial || len(done.FailedWorkers) != 0 {
		t.Fatalf("healthy stream flagged partial: %+v", done)
	}
}

// TestClusterStreamWorkerFailure: a dead worker leg flags the stream's done
// line partial with the worker named; the surviving leg's rows still flow.
func TestClusterStreamWorkerFailure(t *testing.T) {
	f := newClusterFixture(t)
	_, n0 := postMatch(t, f.workers[0], "web", clusterInput)
	f.workers[1].Close()

	rows, done := clusterStream(t, f.feTS, "web", clusterInput)
	if !done.Done || !done.Partial {
		t.Fatalf("degraded stream not flagged partial: %+v", done)
	}
	if !reflect.DeepEqual(done.FailedWorkers, []string{"n1"}) {
		t.Fatalf("failed workers %v, want [n1]", done.FailedWorkers)
	}
	sortRows(rows)
	sortRows(n0.Matches)
	if !reflect.DeepEqual(rows, n0.Matches) {
		t.Fatalf("degraded stream rows diverge from surviving worker:\n%v\n%v", rows, n0.Matches)
	}
	if snap := f.reg.Snapshot(); snap.Counters["cluster_partial_results_total"] != 1 {
		t.Fatalf("partial counter: %v", snap.Counters)
	}
}

// TestClusterReloadFanout: a fanned reload bumps every worker's generation;
// once the artifact is gone, the fan-out degrades to 502 with per-worker
// errors (reloads are idempotent, so no rollback is needed).
func TestClusterReloadFanout(t *testing.T) {
	f := newClusterFixture(t)
	type outcome struct {
		Generation int    `json:"generation"`
		Error      string `json:"error"`
	}
	reload := func() (int, map[string]outcome) {
		resp, err := http.Post(f.feTS.URL+"/v1/web/reload", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Tenant  string             `json:"tenant"`
			Workers map[string]outcome `json:"workers"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body.Workers
	}

	code, workers := reload()
	if code != http.StatusOK {
		t.Fatalf("reload status %d", code)
	}
	for _, dom := range f.domains {
		if workers[dom].Generation != 2 || workers[dom].Error != "" {
			t.Fatalf("worker %s after reload: %+v", dom, workers[dom])
		}
	}
	if snap := f.reg.Snapshot(); snap.Counters["cluster_reloads_total"] != 1 {
		t.Fatalf("reload counter: %v", snap.Counters)
	}

	if err := os.Remove(f.path); err != nil {
		t.Fatal(err)
	}
	code, workers = reload()
	if code != http.StatusBadGateway {
		t.Fatalf("reload without artifact: status %d, want 502", code)
	}
	for _, dom := range f.domains {
		if workers[dom].Error == "" {
			t.Fatalf("worker %s reported no error: %+v", dom, workers[dom])
		}
	}
	// The failed reload must not have disturbed serving.
	if code, _ := postMatch(t, f.feTS, "web", clusterInput); code != http.StatusOK {
		t.Fatalf("match after failed reload: status %d", code)
	}
}

// TestClusterWorkersAndHealth: the health endpoints reflect CheckWorkers
// verdicts — informational only, but accurate.
func TestClusterWorkersAndHealth(t *testing.T) {
	f := newClusterFixture(t)
	health := func() (int, map[string]any) {
		resp, err := http.Get(f.feTS.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}
	listWorkers := func() []workerJSON {
		resp, err := http.Get(f.feTS.URL + "/v1/workers")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rows []workerJSON
		if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
			t.Fatal(err)
		}
		return rows
	}

	// Before any check, workers are conservatively unhealthy.
	if code, body := health(); code != http.StatusOK || body["status"] != "degraded" {
		t.Fatalf("pre-check health: %d %v", code, body)
	}
	f.fe.CheckWorkers()
	code, body := health()
	if code != http.StatusOK || body["status"] != "ok" || body["healthy"].(float64) != 2 {
		t.Fatalf("healthy cluster: %d %v", code, body)
	}
	for _, row := range listWorkers() {
		if !row.Healthy || row.LastError != "" || row.CheckedAt == "" {
			t.Fatalf("healthy worker row: %+v", row)
		}
	}
	if snap := f.reg.Snapshot(); snap.Gauges["cluster_healthy_workers"] != 2 {
		t.Fatalf("healthy gauge: %v", snap.Gauges)
	}

	f.workers[0].Close()
	f.fe.CheckWorkers()
	if code, body := health(); code != http.StatusOK || body["status"] != "degraded" || body["healthy"].(float64) != 1 {
		t.Fatalf("degraded cluster: %d %v", code, body)
	}
	for _, row := range listWorkers() {
		if row.Name == "n0" && (row.Healthy || row.LastError == "") {
			t.Fatalf("dead worker row: %+v", row)
		}
		if row.Name == "n1" && !row.Healthy {
			t.Fatalf("live worker row: %+v", row)
		}
	}
}

// TestClusterDrain: a draining frontend refuses new work with 503 and
// reports it on /healthz.
func TestClusterDrain(t *testing.T) {
	f := newClusterFixture(t)
	f.fe.Drain()
	if code, _ := postMatch(t, f.feTS, "web", clusterInput); code != http.StatusServiceUnavailable {
		t.Fatalf("match while draining: status %d, want 503", code)
	}
	resp, err := http.Post(f.feTS.URL+"/v1/web/stream", "application/octet-stream", bytes.NewReader(clusterInput))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stream while draining: status %d, want 503", resp.StatusCode)
	}
	hr, err := http.Get(f.feTS.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: status %d, want 503", hr.StatusCode)
	}
}

func TestParseWorkers(t *testing.T) {
	good := []struct {
		in   string
		want []WorkerSpec
	}{
		{"http://h1:8600", []WorkerSpec{{Name: "h1:8600", URL: "http://h1:8600"}}},
		{"a=http://h1:8600, b=http://h2:8600/", []WorkerSpec{
			{Name: "a", URL: "http://h1:8600"}, {Name: "b", URL: "http://h2:8600"}}},
		{"http://h1:1,http://h2:2", []WorkerSpec{
			{Name: "h1:1", URL: "http://h1:1"}, {Name: "h2:2", URL: "http://h2:2"}}},
	}
	for _, tc := range good {
		got, err := ParseWorkers(tc.in)
		if err != nil {
			t.Errorf("ParseWorkers(%q): %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseWorkers(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
	bad := []string{
		"",                                 // no workers
		" , ",                              // only separators
		"h1:8600",                          // no scheme
		"a=notaurl",                        // unparsable
		"a=http://h1:1,a=http://h2:2",      // duplicate explicit names
		"http://h1:8600,http://h1:8600",    // duplicate derived names
		"a=http://h1:1,h1:2=http://h1:2=x", // junk
	}
	for _, in := range bad {
		if got, err := ParseWorkers(in); err == nil {
			t.Errorf("ParseWorkers(%q) accepted: %+v", in, got)
		}
	}
}

// TestClusterHealthLoop: with a positive interval the background loop
// drives CheckWorkers on its own — the production path the hermetic tests
// otherwise disable.
func TestClusterHealthLoop(t *testing.T) {
	f := newClusterFixture(t)
	fe, err := NewFrontend(ClusterConfig{
		Workers: []WorkerSpec{
			{Name: "n0", URL: f.workers[0].URL},
			{Name: "n1", URL: f.workers[1].URL},
		},
		HealthInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Drain()
	deadline := time.Now().Add(5 * time.Second)
	for fe.healthyCount() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("health loop never marked both workers healthy")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestNewFrontendErrors(t *testing.T) {
	if _, err := NewFrontend(ClusterConfig{}); err == nil {
		t.Fatal("frontend without workers accepted")
	}
	_, err := NewFrontend(ClusterConfig{Workers: []WorkerSpec{
		{Name: "a", URL: "http://h1:1"}, {Name: "a", URL: "http://h2:2"}}})
	if err == nil {
		t.Fatal("duplicate worker names accepted")
	}
}

// elapsedField cuts the one field of a /match document that is a clock
// reading out of it.
func elapsedField(t *testing.T, doc []byte) []byte {
	t.Helper()
	i := bytes.LastIndex(doc, []byte(`,"elapsed_us":`))
	if i < 0 || !bytes.HasSuffix(doc, []byte("}\n")) {
		t.Fatalf("not a /match document: %.120q", doc)
	}
	return append(append([]byte(nil), doc[:i]...), "}\n"...)
}

func postRaw(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// TestClusterBodiesMatchSingleProcess is the identity row of the wire codec:
// on a body of over a thousand rows, some of which both workers report (an
// alternation's branches land on different shards and end on the same byte),
// the frontend's /match body is the single process's byte for byte — head,
// merged rows with the duplicates dropped, tail; only the clock reading
// differs. A /stream relays each worker's lines as they come, so there the
// identity is of the line sets: sorted, with the cross-worker duplicates a
// relay cannot drop collapsed, the frontend's lines are the single
// process's, and its done line counts what it relayed. A scored tenant,
// sharded and placed the same way, holds to the same identities: each worker
// scores only its own shards, so a stream relays a row from the one worker
// that holds it, and a row two workers report merges to its best score as
// the single process folds it.
func TestClusterBodiesMatchSingleProcess(t *testing.T) {
	f := newClusterFixtureOf(t, []string{"GET /", "needle|dle", "ab+a|a", "zz.?zz"})
	input := []byte(strings.Repeat("GET /idx abba zzAzz needle abbbba GET needle / ", 150))

	var legRows int
	for _, w := range f.workers {
		_, mr := postMatch(t, w, "web", input)
		legRows += len(mr.Matches)
	}
	sresp, single := postRaw(t, f.single.URL+"/v1/web/match", input)
	fresp, merged := postRaw(t, f.feTS.URL+"/v1/web/match", input)
	var doc matchResponse
	if err := json.Unmarshal(single, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Matches) < 1000 || legRows <= len(doc.Matches) {
		t.Fatalf("fixture is vacuous: %d rows, %d across the workers", len(doc.Matches), legRows)
	}
	if !bytes.Equal(elapsedField(t, merged), elapsedField(t, single)) {
		t.Fatalf("frontend /match body diverges from the single process's:\n%.300q\n%.300q", merged, single)
	}
	for _, resp := range []*http.Response{sresp, fresp} {
		if resp.ContentLength <= 0 || resp.Header.Get("Content-Type") != "application/json" || len(resp.TransferEncoding) != 0 {
			t.Fatalf("/match response not sized: length %d, %v", resp.ContentLength, resp.Header)
		}
	}

	lines := func(url string) (rows [][]byte, done []byte) {
		_, raw := postRaw(t, url, input)
		all := bytes.SplitAfter(raw, []byte("\n"))
		if len(all) < 2 || len(all[len(all)-1]) != 0 {
			t.Fatalf("stream does not end in a newline: %.120q", raw)
		}
		rows, done = all[:len(all)-2], all[len(all)-2]
		slices.SortFunc(rows, func(a, b []byte) int {
			var ra, rb matchJSON
			if json.Unmarshal(a, &ra) != nil || json.Unmarshal(b, &rb) != nil {
				t.Fatalf("bad stream lines %q, %q", a, b)
			}
			if ra.End != rb.End {
				return ra.End - rb.End
			}
			return ra.Pattern - rb.Pattern
		})
		return rows, done
	}
	srows, sdone := lines(f.single.URL + "/v1/web/stream")
	frows, fdone := lines(f.feTS.URL + "/v1/web/stream")
	if want := appendStreamDone(nil, int64(len(input)), int64(len(srows))); !bytes.Equal(sdone, want) {
		t.Fatalf("single-process done line %q, want %q", sdone, want)
	}
	if want := appendStreamDone(nil, int64(len(input)), int64(len(frows))); !bytes.Equal(fdone, want) || len(frows) != legRows {
		t.Fatalf("frontend done line %q over %d lines, want %q over %d", fdone, len(frows), want, legRows)
	}
	frows = slices.CompactFunc(frows, bytes.Equal)
	if !slices.EqualFunc(frows, srows, bytes.Equal) {
		t.Fatalf("frontend stream lines diverge from the single process's: %d against %d", len(frows), len(srows))
	}

	pats := [][]byte{[]byte("GET /idx"), []byte("needle"), []byte("abbbba"), []byte("zzAzz")}
	n, weights, err := workload.ScoredLevenshtein(pats, 1, workload.DefaultAlignCosts, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := impala.DefaultConfig()
	cfg.Shards, cfg.Score = 2, weights
	scored, err := impala.CompileAutomaton(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.install(t, "align", scored)
	legRows = 0
	for _, w := range f.workers {
		_, mr := postMatch(t, w, "align", input)
		legRows += len(mr.Matches)
	}
	_, single = postRaw(t, f.single.URL+"/v1/align/match", input)
	_, merged = postRaw(t, f.feTS.URL+"/v1/align/match", input)
	if err := json.Unmarshal(single, &doc); err != nil || len(doc.Matches) < 300 || doc.Matches[0].Score == nil || legRows >= 2*len(doc.Matches) {
		t.Fatalf("scored fixture is vacuous or every worker scores every row: %d rows, %d across the workers (%v)", len(doc.Matches), legRows, err)
	}
	if !bytes.Equal(elapsedField(t, merged), elapsedField(t, single)) {
		t.Fatalf("frontend scored /match body diverges from the single process's:\n%.300q\n%.300q", merged, single)
	}
	best := func(lines [][]byte) (rows []matchJSON) {
		for _, line := range lines {
			var row matchJSON
			if err := json.Unmarshal(line, &row); err != nil || row.Score == nil {
				t.Fatalf("bad scored stream line %q: %v", line, err)
			}
			if last := len(rows) - 1; last >= 0 && rows[last].End == row.End && rows[last].Pattern == row.Pattern {
				*rows[last].Score = max(*rows[last].Score, *row.Score)
				continue
			}
			rows = append(rows, row)
		}
		return rows
	}
	srows, _ = lines(f.single.URL + "/v1/align/stream")
	frows, _ = lines(f.feTS.URL + "/v1/align/stream")
	if got, want := best(frows), best(srows); len(frows) != legRows || len(want) != len(srows) || !reflect.DeepEqual(got, want) {
		t.Fatalf("frontend relayed %d scored lines, the workers hold %d; folded, %d against the single process's %d",
			len(frows), legRows, len(got), len(want))
	}

	// No rows at all is an empty array on both, never a null.
	_, single = postRaw(t, f.single.URL+"/v1/web/match", []byte("nothing to report"))
	_, merged = postRaw(t, f.feTS.URL+"/v1/web/match", []byte("nothing to report"))
	if !bytes.Equal(elapsedField(t, merged), elapsedField(t, single)) || !bytes.Contains(merged, []byte(`"matches":[],`)) {
		t.Fatalf("zero-row bodies diverge:\n%q\n%q", merged, single)
	}

	// The degraded document is still what encoding/json writes for its type,
	// with the surviving worker's rows merged by the codec.
	f.workers[1].Close()
	resp, partial := postRaw(t, f.feTS.URL+"/v1/web/match", input)
	var pr partialResponse
	if err := json.Unmarshal(partial, &pr); err != nil || resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, %v: %.200q", resp.StatusCode, err, partial)
	}
	if want := jsonLine(t, pr); !bytes.Equal(partial, want) || len(pr.Matches) == 0 {
		t.Fatalf("502 body is not encoding/json's:\n%.300q\n%.300q", partial, want)
	}
}

// TestRequestID follows one identifier across the hops: a standalone server
// echoes a well-formed inbound one and replaces a malformed one with its
// own, on errors too; a frontend forwards the one it settled on to both
// workers on /match and /stream legs and echoes it to the client.
func TestRequestID(t *testing.T) {
	do := func(t *testing.T, method, url, id string) string {
		t.Helper()
		req, err := http.NewRequest(method, url, strings.NewReader("GET /idx needle"))
		if err != nil {
			t.Fatal(err)
		}
		if id != "" {
			req.Header.Set(requestIDHeader, id)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		got := resp.Header.Get(requestIDHeader)
		if !validRequestID(got) {
			t.Fatalf("%s %s: response carries request ID %q", method, url, got)
		}
		return got
	}

	t.Run("standalone", func(t *testing.T) {
		s, ts := newTestServer(t, Config{})
		s.Tenants().Install("t", compileMachine(t, []string{"needle"}))
		for _, path := range []string{"/v1/t/match", "/v1/t/stream", "/v1/nosuch/match", "/healthz", "/no/such/route"} {
			if got := do(t, "POST", ts.URL+path, "abc.DEF_1-2"); got != "abc.DEF_1-2" {
				t.Errorf("%s: inbound ID came back as %q", path, got)
			}
		}
		first, second := do(t, "POST", ts.URL+"/v1/t/match", ""), do(t, "POST", ts.URL+"/v1/t/match", "")
		if first == second {
			t.Errorf("two requests were both minted %q", first)
		}
	})

	t.Run("malformed inbound replaced", func(t *testing.T) {
		s, ts := newTestServer(t, Config{})
		s.Tenants().Install("t", compileMachine(t, []string{"needle"}))
		for _, bad := range []string{"has space", "semi;colon", "new\tline", strings.Repeat("x", 65), "caf\u00e9"} {
			if got := do(t, "POST", ts.URL+"/v1/t/match", bad); got == bad {
				t.Errorf("malformed ID %q was echoed", bad)
			}
		}
		if got := do(t, "POST", ts.URL+"/v1/t/match", strings.Repeat("x", 64)); got != strings.Repeat("x", 64) {
			t.Errorf("a 64-byte ID was replaced by %q", got)
		}
	})

	t.Run("frontend to 2 workers", func(t *testing.T) {
		// Each worker sits behind a recorder of the IDs it was handed.
		var mu sync.Mutex
		seen := map[string][]string{}
		var specs []WorkerSpec
		for _, name := range []string{"n0", "n1"} {
			ws := New(Config{})
			ws.Tenants().Install("web", compileMachine(t, []string{"needle"}))
			h := ws.Handler()
			wts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				mu.Lock()
				seen[r.URL.Path] = append(seen[r.URL.Path], r.Header.Get(requestIDHeader))
				mu.Unlock()
				h.ServeHTTP(w, r)
			}))
			t.Cleanup(func() { wts.Close(); ws.Drain() })
			specs = append(specs, WorkerSpec{Name: name, URL: wts.URL})
		}
		fe, err := NewFrontend(ClusterConfig{Workers: specs, HealthInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		fts := httptest.NewServer(fe.Handler())
		t.Cleanup(func() { fts.Close(); fe.Drain() })

		for _, endpoint := range []string{"/v1/web/match", "/v1/web/stream"} {
			for _, inbound := range []string{"trace-42", "", "not valid"} {
				mu.Lock()
				clear(seen)
				mu.Unlock()
				got := do(t, "POST", fts.URL+endpoint, inbound)
				if inbound == "trace-42" && got != inbound {
					t.Errorf("%s: frontend replaced a well-formed ID with %q", endpoint, got)
				}
				if inbound == "not valid" && got == inbound {
					t.Errorf("%s: frontend echoed a malformed ID", endpoint)
				}
				mu.Lock()
				if ids := seen[endpoint]; len(ids) != 2 || ids[0] != got || ids[1] != got {
					t.Errorf("%s: client saw %q, workers were handed %q", endpoint, got, ids)
				}
				mu.Unlock()
			}
		}
	})
}
