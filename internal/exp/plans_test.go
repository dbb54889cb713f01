package exp

import (
	"bytes"
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestPlans recomputes the plan table at make bench's settings (scale 0.02,
// seed 1, 64 KiB) and fails on every row and column that differs from
// BENCH_plans.json, which make bench rewrites.
func TestPlans(t *testing.T) {
	if testing.Short() {
		t.Skip("the plan table compiles, plans and places every design point")
	}
	f, err := os.Open("../../BENCH_plans.json")
	if err != nil {
		t.Fatal(err)
	}
	base, err := ReadPlans(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	cur, err := Plans(Options{Seed: 1, Parallel: runtime.GOMAXPROCS(0)})
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range ComparePlans(base, cur) {
		t.Error(msg)
	}
}

// ComparePlans flags exactly what differs: a row or column one side lacks,
// a drifted int or int slice, a float beyond 1e-9 relative, other settings.
func TestComparePlans(t *testing.T) {
	table := func(rows map[string]map[string]any) *PlanTable {
		return &PlanTable{Scale: 0.02, Seed: 1, InputKB: 64, Rows: rows}
	}
	base := table(map[string]map[string]any{
		"a": {"n": 3, "s": []int{1, 2}, "f": 0.1},
		"b": {"n": 7},
	})
	for _, tc := range []struct {
		name string
		cur  *PlanTable
		want []string // one substring per message, in order
	}{
		{"identical", base, nil},
		{"float within 1e-9", table(map[string]map[string]any{
			"a": {"n": 3, "s": []int{1, 2}, "f": 0.1 * (1 + 1e-12)}, "b": {"n": 7}}), nil},
		{"missing row", table(map[string]map[string]any{
			"a": {"n": 3, "s": []int{1, 2}, "f": 0.1}}), []string{"b: missing"}},
		{"extra row", table(map[string]map[string]any{
			"a": {"n": 3, "s": []int{1, 2}, "f": 0.1}, "b": {"n": 7}, "c": {"n": 1}}), []string{"c: not in the baseline"}},
		{"missing and extra column", table(map[string]map[string]any{
			"a": {"n": 3, "s": []int{1, 2}, "f": 0.1}, "b": {"m": 7}}), []string{"b: m not in the baseline; n missing"}},
		{"drifted int", table(map[string]map[string]any{
			"a": {"n": 4, "s": []int{1, 2}, "f": 0.1}, "b": {"n": 7}}), []string{"a: n 4, baseline 3"}},
		{"drifted int slice", table(map[string]map[string]any{
			"a": {"n": 3, "s": []int{2, 1}, "f": 0.1}, "b": {"n": 7}}), []string{"a: s [2 1], baseline [1 2]"}},
		{"shorter int slice", table(map[string]map[string]any{
			"a": {"n": 3, "s": []int{1}, "f": 0.1}, "b": {"n": 7}}), []string{"a: s [1], baseline [1 2]"}},
		{"float beyond 1e-9", table(map[string]map[string]any{
			"a": {"n": 3, "s": []int{1, 2}, "f": 0.1 * (1 + 1e-8)}, "b": {"n": 7}}), []string{"a: f 0.100000001, baseline 0.1"}},
		{"int where a slice was", table(map[string]map[string]any{
			"a": {"n": 3, "s": 2, "f": 0.1}, "b": {"n": 7}}), []string{"a: s 2, baseline [1 2]"}},
		{"other settings", &PlanTable{Scale: 0.04, Seed: 1, InputKB: 64, Rows: base.Rows}, []string{"settings scale 0.04"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := ComparePlans(base, tc.cur)
			if len(got) != len(tc.want) {
				t.Fatalf("got %q, want %d messages", got, len(tc.want))
			}
			for i, w := range tc.want {
				if !strings.Contains(got[i], w) {
					t.Errorf("message %d = %q, want it to contain %q", i, got[i], w)
				}
			}
		})
	}

	// A table read back from what Write wrote compares equal to the one
	// written, and Write is byte-stable.
	var buf bytes.Buffer
	if err := base.Write(&buf); err != nil {
		t.Fatal(err)
	}
	written := buf.String()
	read, err := ReadPlans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if bad := ComparePlans(read, base); len(bad) > 0 {
		t.Fatalf("round trip: %q", bad)
	}
	buf.Reset()
	if err := read.Write(&buf); err != nil || buf.String() != written {
		t.Fatalf("rewrite of a read table differs (%v):\n%s\nwant:\n%s", err, buf.String(), written)
	}
	if _, err := ReadPlans(strings.NewReader(`{"scale": 0.02, "rows": {}}`)); err == nil {
		t.Fatal("a table without rows was read")
	}
}

// A restricted plan table covers only the named benchmarks, on every design
// point that runs them, beside the scored universes.
func TestPlansRestricted(t *testing.T) {
	p, err := Plans(Options{Scale: 0.004, Seed: 1, InputKB: 4, Benchmarks: []string{"Bro217"}})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Bro217", "Bro217 K=1", "Bro217 K=2 skewed3", "Bro217 workers=1", "Bro217/cam", "Bro217/impala", "DNA-align", "Entity-fuzzy"}
	for _, key := range want {
		if p.Rows[key] == nil {
			t.Errorf("no row %q", key)
		}
	}
	for key := range p.Rows {
		if !strings.HasPrefix(key, "Bro217") && key != "DNA-align" && key != "Entity-fuzzy" {
			t.Errorf("row %q is not Bro217's", key)
		}
	}
	if got := len(p.Tables()); got != len(planDesigns)+1 {
		t.Fatalf("%d tables, want one per design point and the universes' (%d)", got, len(planDesigns)+1)
	}
	out := render(t, p.Tables())
	if !strings.Contains(out, "Bro217 K=4 uniform2") || !strings.Contains(out, "shard_domain") {
		t.Fatalf("bad render:\n%s", out)
	}
}
