// Package exp is the experiment harness: one runner per table and figure of
// the paper's evaluation (Section 8), producing the same rows/series the
// paper reports, plus the Section 5.2.1 placement case study. Absolute
// numbers come from our models and synthetic suite; the shapes — who wins,
// by what factor, where the crossovers fall — are the reproduction targets
// and are recorded against the paper's numbers in EXPERIMENTS.md.
package exp

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"impala/internal/automata"
	"impala/internal/par"
	"impala/internal/workload"
)

// Options configures a harness run.
type Options struct {
	// Scale shrinks every benchmark relative to paper size (1.0). The
	// default 0.02 keeps the full suite laptop-scale.
	Scale float64
	// Seed drives all generators and search heuristics.
	Seed int64
	// Benchmarks replaces the benchmarks an experiment runs (nil = its
	// own list, or all 21). An unknown name fails the experiment.
	Benchmarks []string
	// InputKB is the input stream size for activity-driven experiments
	// (the paper uses 10 MB; default here 64 KB).
	InputKB int
	// Strides restricts Table 4 stride columns (nil = 1,2,4,8).
	Strides []int
	// DumpDir, when set, receives one CSV file per rendered table for
	// external plotting.
	DumpDir string
	// Parallel bounds how many benchmark × design-point cells the
	// compile-heavy experiments run concurrently (a bounded semaphore over
	// the cell list; results are assembled in cell order, so tables are
	// identical for any value). The default 1 keeps per-cell wall-clock
	// measurements faithful; raise it to sweep the suite faster.
	Parallel int
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 0.02
	}
	if o.InputKB == 0 {
		o.InputKB = 64
	}
	if len(o.Strides) == 0 {
		o.Strides = []int{1, 2, 4, 8}
	}
	if o.Parallel == 0 {
		o.Parallel = 1
	}
	return o
}

// forEachCell runs fn(i) for every cell index in [0, n) under the bounded
// cell semaphore (Options.Parallel). fn must write results only into
// index-i slots; the first failing index's error is returned.
func (o Options) forEachCell(n int, fn func(i int) error) error {
	return par.ForErr(o.Parallel, n, fn)
}

// suite resolves the benchmarks an experiment runs: o.Benchmarks when set,
// else the experiment's defaults, else the whole suite. It is the one place
// a benchmark name is resolved, and it refuses a name workload.Get does not
// know.
func (o Options) suite(defaults ...string) ([]workload.Benchmark, error) {
	names := o.Benchmarks
	if len(names) == 0 {
		names = defaults
	}
	if len(names) == 0 {
		return workload.Suite(), nil
	}
	out := make([]workload.Benchmark, len(names))
	for i, name := range names {
		b, ok := workload.Get(name)
		if !ok {
			return nil, fmt.Errorf("exp: unknown benchmark %q", name)
		}
		out[i] = b
	}
	return out, nil
}

func (o Options) generate(b workload.Benchmark) (*automata.NFA, error) {
	return b.Generate(o.Scale, o.Seed)
}

// Table is a simple column-aligned text table used for all experiment
// output.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a footnote line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes the table.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// WriteCSV writes the table as a CSV file (header + rows; notes as trailing
// comment lines).
func (t *Table) WriteCSV(w io.Writer) error {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	row := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = esc(c)
		}
		_, err := fmt.Fprintln(w, strings.Join(parts, ","))
		return err
	}
	if err := row(t.Header); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := row(r); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "# %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// slugify turns a table title into a file name.
func slugify(title string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(title) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		case r == ' ' || r == '-' || r == '_' || r == ':':
			b.WriteByte('-')
		}
	}
	out := b.String()
	for strings.Contains(out, "--") {
		out = strings.ReplaceAll(out, "--", "-")
	}
	return strings.Trim(out, "-")
}

// Dump writes every table to o.DumpDir as CSV (no-op when unset).
func Dump(o Options, tables []*Table) error {
	if o.DumpDir == "" {
		return nil
	}
	if err := os.MkdirAll(o.DumpDir, 0o755); err != nil {
		return err
	}
	for _, t := range tables {
		path := filepath.Join(o.DumpDir, slugify(t.Title)+".csv")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := t.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// f2 formats a float with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// f1 formats a float with one decimal.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// Runner executes one experiment and returns its rendered table(s).
type Runner func(o Options) ([]*Table, error)

// experiment is one impala-bench -exp ID.
type experiment struct {
	id  string
	run Runner
}

// experiments is the one ordered list of everything impala-bench can run;
// Registry and IDs are views of it.
var experiments = []experiment{
	{id: "fig2", run: Figure2},
	{id: "table1", run: Table1CompileTime},
	{id: "table4", run: Table4VTeSS},
	{id: "table5", run: Table5Pipeline},
	{id: "fig13", run: Figure13Throughput},
	{id: "fig14", run: Figure14Area},
	{id: "fig11", run: Figure11ThroughputPerArea},
	{id: "fig12", run: Figure12EnergyPower},
	{id: "table6", run: Table6FPGA},
	{id: "fig8", run: Figure8Utilization},
	{id: "fig9", run: Figure9Heatmap},
	{id: "fig10", run: Figure10G4},
	{id: "casestudy", run: CaseStudyEntityResolution},
	{id: "system", run: SystemIntegration},
	{id: "ablate", run: Ablation},
	{id: "rounds", run: Reconfiguration},
	{id: "squash", run: SquashWidth},
	{id: "software", run: SoftwareBaseline},
	{id: "simspeed", run: SimulatorSpeed},
	{id: "servespeed", run: ServeSpeed},
	{id: "plans", run: func(o Options) ([]*Table, error) {
		p, err := Plans(o)
		if err != nil {
			return nil, err
		}
		return p.Tables(), nil
	}},
}

// Registry maps experiment IDs (as used by impala-bench -exp) to runners.
func Registry() map[string]Runner {
	reg := make(map[string]Runner, len(experiments))
	for _, e := range experiments {
		reg[e.id] = e.run
	}
	return reg
}

// IDs returns the registered experiment IDs in a stable presentation order.
func IDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}
