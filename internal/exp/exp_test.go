package exp

import (
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"
)

// tiny returns options that keep each experiment sub-second-ish in tests.
func tiny() Options {
	return Options{
		Scale:      0.004,
		Seed:       1,
		InputKB:    4,
		Strides:    []int{1, 2, 4},
		Benchmarks: []string{"Bro217", "ExactMatch", "CoreRings"},
	}
}

func render(t *testing.T, tables []*Table) string {
	t.Helper()
	var buf bytes.Buffer
	for _, tab := range tables {
		tab.Render(&buf)
	}
	return buf.String()
}

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	ids := IDs()
	if len(reg) != len(ids) {
		t.Fatalf("registry %d vs ids %d", len(reg), len(ids))
	}
	for _, id := range ids {
		if reg[id] == nil {
			t.Fatalf("missing runner %s", id)
		}
	}
}

func TestFigure2(t *testing.T) {
	tables, err := Figure2(tiny())
	if err != nil {
		t.Fatal(err)
	}
	out := render(t, tables)
	if !strings.Contains(out, "TOTAL") {
		t.Fatalf("no TOTAL row:\n%s", out)
	}
	// The single-symbol fraction in the TOTAL row must dominate.
	lines := strings.Split(out, "\n")
	for _, l := range lines {
		if strings.HasPrefix(l, "TOTAL") {
			fields := strings.Fields(l)
			v, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				t.Fatal(err)
			}
			if v < 0.5 {
				t.Fatalf("single-symbol fraction %v too low", v)
			}
		}
	}
}

func TestTable1(t *testing.T) {
	tables, err := Table1CompileTime(tiny())
	if err != nil {
		t.Fatal(err)
	}
	out := render(t, tables)
	if !strings.Contains(out, "Impala 4-stride") || !strings.Contains(out, "TOTAL") {
		t.Fatalf("bad output:\n%s", out)
	}
}

func TestTable4(t *testing.T) {
	o := tiny()
	o.Strides = []int{1, 2}
	tables, err := Table4VTeSS(o)
	if err != nil {
		t.Fatal(err)
	}
	out := render(t, tables)
	if !strings.Contains(out, "AVERAGE") {
		t.Fatalf("bad output:\n%s", out)
	}
}

func TestTable5(t *testing.T) {
	tables, err := Table5Pipeline(Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := render(t, tables)
	for _, want := range []string{"5.55", "5.00", "3.6", "0.13", "1.69"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFigure13(t *testing.T) {
	tables, err := Figure13Throughput(Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := render(t, tables)
	if !strings.Contains(out, "80.0") {
		t.Fatalf("missing 80 Gbps:\n%s", out)
	}
}

func TestFigure14(t *testing.T) {
	tables, err := Figure14Area(Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := render(t, tables)
	if !strings.Contains(out, "5.2x") && !strings.Contains(out, "5.1x") {
		t.Fatalf("missing state-matching ratio:\n%s", out)
	}
}

func TestTable6(t *testing.T) {
	tables, err := Table6FPGA(Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := render(t, tables)
	if !strings.Contains(out, "Yang") || !strings.Contains(out, "Impala") {
		t.Fatalf("bad output:\n%s", out)
	}
}

func TestFigure11(t *testing.T) {
	tables, err := Figure11ThroughputPerArea(tiny())
	if err != nil {
		t.Fatal(err)
	}
	out := render(t, tables)
	if !strings.Contains(out, "geomean") {
		t.Fatalf("bad output:\n%s", out)
	}
}

func TestFigure12(t *testing.T) {
	o := tiny()
	o.Benchmarks = []string{"Bro217"}
	tables, err := Figure12EnergyPower(o)
	if err != nil {
		t.Fatal(err)
	}
	out := render(t, tables)
	if !strings.Contains(out, "energy ratio") {
		t.Fatalf("bad output:\n%s", out)
	}
}

func TestFigure8(t *testing.T) {
	tables, err := Figure8Utilization(tiny())
	if err != nil {
		t.Fatal(err)
	}
	out := render(t, tables)
	if !strings.Contains(out, "stranded") {
		t.Fatalf("bad output:\n%s", out)
	}
}

func TestFigure9(t *testing.T) {
	o := tiny()
	tables, err := Figure9Heatmap(o)
	if err != nil {
		t.Fatal(err)
	}
	out := render(t, tables)
	if !strings.Contains(out, "Dotstar06") {
		t.Fatalf("bad output:\n%s", out)
	}
}

func TestFigure10(t *testing.T) {
	o := tiny()
	o.Benchmarks = []string{"Bro217"}
	tables, err := Figure10G4(o)
	if err != nil {
		t.Fatal(err)
	}
	out := render(t, tables)
	// GA column must be zero.
	if !strings.Contains(out, "Bro217") {
		t.Fatalf("bad output:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "Bro217") {
			fields := strings.Fields(line)
			if fields[4] != "0" {
				t.Fatalf("GA uncovered != 0: %s", line)
			}
		}
	}
}

func TestCaseStudy(t *testing.T) {
	o := tiny()
	tables, err := CaseStudyEntityResolution(o)
	if err != nil {
		t.Fatal(err)
	}
	out := render(t, tables)
	if !strings.Contains(out, "930.7") { // paper column present
		t.Fatalf("bad output:\n%s", out)
	}
	if strings.Contains(out, "PLACEMENT FAILED") {
		t.Fatalf("placement failed:\n%s", out)
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{Title: "T", Header: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddNote("n=%d", 5)
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "== T ==") || !strings.Contains(out, "note: n=5") {
		t.Fatalf("bad render:\n%s", out)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Scale != 0.02 || o.InputKB != 64 || len(o.Strides) != 4 {
		t.Fatalf("defaults = %+v", o)
	}
	if len(o.suite()) != 21 {
		t.Fatal("default suite wrong")
	}
	o.Benchmarks = []string{"Snort", "NoSuch"}
	if len(o.suite()) != 1 {
		t.Fatal("subset selection wrong")
	}
}

func TestSystemIntegration(t *testing.T) {
	o := tiny()
	tables, err := SystemIntegration(o)
	if err != nil {
		t.Fatal(err)
	}
	out := render(t, tables)
	// The paper's 2.5KB IB figure for the 4-bit design at 5GHz/1MHz.
	if !strings.Contains(out, "2500.0") {
		t.Fatalf("missing 2.5KB IB row:\n%s", out)
	}
	if !strings.Contains(out, "reports/cycle") {
		t.Fatalf("missing rate table:\n%s", out)
	}
}

func TestWriteCSVAndDump(t *testing.T) {
	tab := &Table{Title: "Figure X: sample, with comma", Header: []string{"a", "b"}}
	tab.AddRow("1", `va"l,ue`)
	tab.AddNote("a note")
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"va""l,ue"`) || !strings.Contains(out, "# a note") {
		t.Fatalf("csv:\n%s", out)
	}
	dir := t.TempDir()
	o := Options{DumpDir: dir}
	if err := Dump(o, []*Table{tab}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || !strings.HasSuffix(entries[0].Name(), ".csv") {
		t.Fatalf("dump produced %v", entries)
	}
	if slugify("Figure 2: states (x/y)") == "" {
		t.Fatal("slugify empty")
	}
	// No-op without DumpDir.
	if err := Dump(Options{}, []*Table{tab}); err != nil {
		t.Fatal(err)
	}
}

func TestAblation(t *testing.T) {
	o := tiny()
	o.Benchmarks = []string{"Bro217"}
	tables, err := Ablation(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("tables = %d", len(tables))
	}
	out := render(t, tables)
	for _, want := range []string{"refine cost", "search ladder", "stride sweep"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
	// The full-GA column must be zero.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "Bro217") && strings.Count(line, " ") > 3 {
			fields := strings.Fields(line)
			if len(fields) == 5 && fields[4] != "0" && fields[4] != "0.00" {
				// placement ladder row has 5 fields; last must be 0
				if _, err := strconv.Atoi(fields[4]); err == nil && fields[4] != "0" {
					t.Fatalf("GA column nonzero: %s", line)
				}
			}
		}
	}
}

func TestSquashWidth(t *testing.T) {
	o := tiny()
	o.Benchmarks = []string{"Bro217", "CoreRings"}
	tables, err := SquashWidth(o)
	if err != nil {
		t.Fatal(err)
	}
	out := render(t, tables)
	if !strings.Contains(out, "sweet spot") || !strings.Contains(out, "AVERAGE") {
		t.Fatalf("bad output:\n%s", out)
	}
}

func TestReconfigurationExp(t *testing.T) {
	o := tiny()
	o.Benchmarks = []string{"Bro217"}
	tables, err := Reconfiguration(o)
	if err != nil {
		t.Fatal(err)
	}
	out := render(t, tables)
	if !strings.Contains(out, "rounds") || !strings.Contains(out, "eff Gbps") {
		t.Fatalf("bad output:\n%s", out)
	}
}

func TestSoftwareBaseline(t *testing.T) {
	o := tiny()
	o.Benchmarks = []string{"Bro217"}
	tables, err := SoftwareBaseline(o)
	if err != nil {
		t.Fatal(err)
	}
	out := render(t, tables)
	if !strings.Contains(out, "DFA MB/s") || !strings.Contains(out, "Bro217") {
		t.Fatalf("bad output:\n%s", out)
	}
}

func TestCompileSpeed(t *testing.T) {
	o := tiny()
	o.Benchmarks = []string{"Bro217"}
	rep, err := CompileSpeedReport(o)
	if err != nil {
		t.Fatal(err)
	}
	// One uncached baseline row plus the worker sweep, all with identical
	// compiled shapes (the determinism invariant CompileSpeedReport itself
	// re-checks per row).
	if len(rep.Cells) != 1+len(compileSpeedWorkers) {
		t.Fatalf("cells = %d", len(rep.Cells))
	}
	for _, c := range rep.Cells[1:] {
		if c.CacheHits+c.CacheMisses == 0 {
			t.Errorf("workers=%d: no cache activity recorded", c.Workers)
		}
	}
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"cache_hit_rate"`) {
		t.Fatalf("json missing fields:\n%s", buf.String())
	}
	out := render(t, []*Table{compileTable(rep)})
	if !strings.Contains(out, "uncached") || !strings.Contains(out, "vs serial") {
		t.Fatalf("bad table:\n%s", out)
	}
}

// The cell semaphore must not change any experiment's rows: running the
// compile-heavy experiments with Parallel 1 and 4 must render identical
// tables (timing columns excluded, so Table1 is checked via Table4/Figure2,
// whose cells carry no timings).
func TestParallelCellsDeterministic(t *testing.T) {
	for name, runner := range map[string]Runner{"fig2": Figure2, "table4": Table4VTeSS} {
		o := tiny()
		o.Parallel = 1
		serial, err := runner(o)
		if err != nil {
			t.Fatal(err)
		}
		o.Parallel = 4
		parallel, err := runner(o)
		if err != nil {
			t.Fatal(err)
		}
		if render(t, serial) != render(t, parallel) {
			t.Errorf("%s: Parallel=4 changed the table", name)
		}
	}
}
