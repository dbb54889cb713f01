package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"impala/internal/automata"
	"impala/internal/obs"
)

func traceInput(t *testing.T) *automata.NFA {
	t.Helper()
	n := automata.New(8, 1)
	n.AddLiteral("abcd", automata.StartAllInput, 1)
	n.AddLiteral("wxyz", automata.StartAllInput, 2)
	n.AddLiteral("hello", automata.StartOfData, 3)
	return n
}

// A traced compile must record one lane-0 span per reported stage (same
// names as Result.Stages) plus worker-batch spans for the Espresso-heavy
// stages, and the whole document must serialize as a valid Chrome trace.
func TestCompileTraceSpansPerStage(t *testing.T) {
	tr := obs.NewTrace()
	n := traceInput(t)
	res, err := Compile(n, Config{TargetBits: 4, StrideDims: 4, Workers: 2, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			TID  int    `json:"tid"`
			Dur  int64  `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}

	stageSpans := map[string]int{}
	batchSpans := 0
	for _, ev := range doc.TraceEvents {
		if ev.TID == 0 {
			stageSpans[ev.Name]++
		} else {
			batchSpans++
		}
	}
	for _, st := range res.Stages {
		if stageSpans[st.Name] != 1 {
			t.Errorf("stage %q: %d lane-0 spans, want 1 (have %v)", st.Name, stageSpans[st.Name], stageSpans)
		}
	}
	if batchSpans == 0 {
		t.Error("no worker-batch spans recorded for the parallel stages")
	}
}

// Tracing and metrics must be exactly transparent: the compiled automaton
// is byte-identical with and without them.
func TestCompileTraceIsTransparent(t *testing.T) {
	n := traceInput(t)
	plain, err := Compile(n, Config{TargetBits: 4, StrideDims: 2})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	traced, err := Compile(n, Config{
		TargetBits: 4, StrideDims: 2, Workers: 2,
		Trace: obs.NewTrace(), Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(plain.NFA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(traced.NFA)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("traced compile produced a different automaton")
	}
}

// Config.Metrics must expose the compile's cover cache live: after a
// compile the hit/miss gauges agree with the Result's own counters. The
// compile is serial: concurrent workers race to the first miss on a key, so
// on an input this small they can miss every lookup and hit none.
func TestCompileMetricsExposeCacheCounters(t *testing.T) {
	reg := obs.NewRegistry()
	res, err := Compile(traceInput(t), Config{TargetBits: 4, StrideDims: 4, Workers: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Gauges["espresso_cache_hits"]; got != int64(res.CacheHits) {
		t.Errorf("cache hits gauge = %d, want %d", got, res.CacheHits)
	}
	if got := snap.Gauges["espresso_cache_misses"]; got != int64(res.CacheMisses) {
		t.Errorf("cache misses gauge = %d, want %d", got, res.CacheMisses)
	}
	if snap.Gauges["espresso_cache_entries"] <= 0 {
		t.Errorf("cache entries gauge = %d, want > 0", snap.Gauges["espresso_cache_entries"])
	}
	if res.CacheHits == 0 {
		t.Fatal("degenerate input: compile had no cache hits")
	}
}
