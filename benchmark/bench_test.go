package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// quick shortens every phase so the whole suite of workloads runs under
// `go test`: 200 ms windows, one set-up, two rounds of five loads.
func quick(t *testing.T, seed int64) options {
	return options{
		Seed:     seed,
		Window:   200 * time.Millisecond,
		Warmup:   50 * time.Millisecond,
		TraceDir: t.TempDir(),
	}
}

// dominant is the layer (or pair of layers) that holds the largest share of
// each workload's request time: the four the issue names, and what the
// ledger shows for the stream and the cluster.
var dominant = map[string][]string{
	"snort_nfa_match":     {"sim"},
	"hamming_tier_match":  {"dfa"},
	"bro_small_match":     {"server", "http"},
	"exact_dense_stream":  {"sim"},
	"snort_shard_cluster": {"cluster"},
	"dna_scored_match":    {"score"},
}

// TestWorkloads runs all six workloads end to end on two seeds: every reply
// must agree with the scalar or DP reference, planted witnesses must produce
// rows, every end-to-end metric must be non-zero, and on the traced run the
// named layer must dominate the ledger and a loadable trace must be written.
func TestWorkloads(t *testing.T) {
	for _, s := range specs {
		t.Run(s.Name, func(t *testing.T) {
			for _, seed := range []int64{1, 2} {
				src, err := s.source()
				if err != nil {
					t.Fatal(err)
				}
				bodies, err := s.corpus(src, seed)
				if err != nil {
					t.Fatal(err)
				}
				rows := 0
				for _, b := range bodies {
					rows += len(b.Want)
				}
				if planted := s.Spacing > 0 || src.Weights != nil; planted && rows == 0 {
					t.Fatalf("seed %d: planted corpus has no expected rows", seed)
				}

				o := quick(t, seed)
				res, err := runTimed(s, o)
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("seed %d: %d of %d requests failed: %s", seed, res.Failed, res.Attempted, res.FirstError)
				}
				for _, d := range endToEnd {
					if v := res.Metrics[d.Name]; v.Value <= 0 || v.Unit != d.Unit {
						t.Errorf("seed %d: %s = %v %q, want a positive value in %s", seed, d.Name, v.Value, v.Unit, d.Unit)
					}
				}
			}

			o := quick(t, 1)
			res, err := runTraced(s, o)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("traced: %d of %d requests failed: %s", res.Failed, res.Attempted, res.FirstError)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("traced run reported %d metrics, want %d", len(res.Metrics), len(perLayer))
			}
			share, sum := map[string]float64{}, 0.0
			for _, l := range res.Ledger {
				share[strings.SplitN(l.Layer, ".", 2)[0]] += l.Share
				sum += l.Share
			}
			if sum < 0.999 || sum > 1.001 {
				t.Errorf("ledger shares sum to %v, want 1: self times must telescope to the client span", sum)
			}
			want := 0.0
			for _, layer := range dominant[s.Name] {
				want += share[layer]
			}
			for layer, got := range share {
				if got > want {
					t.Errorf("layer %s holds %.0f%% of the request, more than %v with %.0f%%", layer, 100*got, dominant[s.Name], 100*want)
				}
			}

			raw, err := os.ReadFile(filepath.Join(o.TraceDir, s.Name+".trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []struct {
					Name string         `json:"name"`
					Args map[string]any `json:"args"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatalf("trace file does not load: %v", err)
			}
			real, replays := 0, 0
			for _, ev := range doc.TraceEvents {
				if ev.Args["replay"] == true {
					replays++
				} else {
					real++
				}
			}
			if real == 0 || replays == 0 {
				t.Errorf("trace holds %d real and %d replayed spans, want both", real, replays)
			}
		})
	}
}

// TestCorruptedReplyCounts drops one row from one reply on its way to the
// client: the run must count exactly that request as failed.
func TestCorruptedReplyCounts(t *testing.T) {
	s, _ := specByName("snort_nfa_match")
	o := quick(t, 1)
	var replies atomic.Int32
	o.Wrap = func(_ string, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if replies.Add(1) != 3 {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			var doc map[string]any
			if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
				t.Error(err)
			}
			matches := doc["matches"].([]any)
			if len(matches) == 0 {
				t.Error("no row to drop: the corpus planted no witness in this body")
			}
			doc["matches"] = matches[1:]
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(doc)
		})
	}
	res, err := runTimed(s, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || !strings.Contains(res.FirstError, "row") {
		t.Fatalf("failed = %d (%q), want exactly the corrupted reply", res.Failed, res.FirstError)
	}
}

// TestDriverLine runs the command the way the driver does and checks the
// last line of its output against the contract.
func TestDriverLine(t *testing.T) {
	for trace, defs := range [][]metricDef{endToEnd, perLayer} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "bro_small_match", "--seed", "7", "--seconds", "1", "--trace", []string{"0", "1"}[trace], "--tracedir", t.TempDir()}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatal(err)
		}
		if len(line) != 4 || string(line["correct"]) != "true" || string(line["failed"]) != "0" || line["attempted"] == nil {
			t.Fatalf("result line %s", lines[len(lines)-1])
		}
		var got map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		}
		if err := json.Unmarshal(line["metrics"], &got); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(defs) {
			t.Errorf("trace %d: %d metrics, want %d", trace, len(got), len(defs))
		}
		for _, d := range defs {
			if v, ok := got[d.Name]; !ok || v.Value == nil || v.Unit != d.Unit {
				t.Errorf("trace %d: metric %s is %+v, want a value in %s", trace, d.Name, v, d.Unit)
			}
		}
	}
	var stderr bytes.Buffer
	if code := run([]string{"-workload", "no_such"}, &stderr, &stderr); code == 0 {
		t.Error("an unknown workload must not exit 0")
	}
}

// TestCompare pins the comparator's verdicts and its refusals.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, seed int64, edit func(m map[string]value)) string {
		m := map[string]value{}
		for _, d := range endToEnd {
			m[d.Name] = value{Value: 100, Unit: d.Unit}
		}
		if edit != nil {
			edit(m)
		}
		rep := report{Host: host{Seed: seed, WindowSeconds: 10}, Results: []*result{{Workload: "w", Attempted: 5, Metrics: m}}}
		path := filepath.Join(dir, name)
		if err := writeReport(path, &rep); err != nil {
			t.Fatal(err)
		}
		return path
	}
	set := func(name string, v float64) func(map[string]value) {
		return func(m map[string]value) { m[name] = value{Value: v} }
	}
	base := write("a.json", 1, nil)
	var bound float64
	for _, d := range endToEnd {
		if d.Name == "scan_ns_per_byte" {
			bound = d.Bound
		}
	}
	scan := func(boundsWorse float64) func(map[string]value) {
		return set("scan_ns_per_byte", 100*(1+boundsWorse*bound))
	}
	for _, tc := range []struct {
		name        string
		edit        func(map[string]value)
		regressions int
		says        string
	}{
		{"same", nil, 0, "unchanged"},
		{"slower", scan(1.5), 1, "REGRESSION"},
		{"faster", scan(-1.5), 0, "improved"},
		{"between", scan(0.6), 0, "unresolved"},
		{"noise", scan(0.2), 0, "unchanged"},
		{"exact", set("artifact_mb", 100.5), 1, "must repeat exactly"},
		{"model", set("modelled_gbps_per_mm2", 100.00001), 1, "must repeat exactly"},
	} {
		var out bytes.Buffer
		n, err := compareFiles(base, write(tc.name+".json", 1, tc.edit), &out)
		if err != nil || n != tc.regressions || !strings.Contains(out.String(), tc.says) {
			t.Errorf("%s: %d regressions, err %v, want %d and %q in:\n%s", tc.name, n, err, tc.regressions, tc.says, out.String())
		}
	}
	if _, err := compareFiles(base, write("seed2.json", 2, nil), &bytes.Buffer{}); err == nil {
		t.Error("reports of different seeds must not compare")
	}
	var stderr bytes.Buffer
	if code := run([]string{"-compare", base}, &stderr, &stderr); code == 0 {
		t.Error("-compare with one file must not exit 0")
	}
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in metrics.go and workloads.go")

// TestBenchmarkJSON keeps BENCHMARK.json, which the driver reads, identical
// to what the tables the program measures against say. After changing a
// table, run `go test -run TestBenchmarkJSON -update`.
func TestBenchmarkJSON(t *testing.T) {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type unbounded struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []workload  `json:"workloads"`
		EndToEnd   []bounded   `json:"end_to_end"`
		PerLayer   []unbounded `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: 10}
	for _, s := range specs {
		if len(s.Why) > 200 {
			t.Errorf("%s: the reason is %d characters, the contract allows 200", s.Name, len(s.Why))
		}
		doc.Workloads = append(doc.Workloads, workload{s.Name, s.Why})
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside the contract's (0, 0.25]", d.Name, d.Bound)
		}
		doc.EndToEnd = append(doc.EndToEnd, bounded{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, unbounded{d.Name, d.Unit, d.Better})
	}
	want, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is out of step with the benchmark's tables; it should read:\n%s", want)
	}
}
