package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"impala/internal/obs"
)

// Report is the one JSON document every gated experiment writes
// (impala-bench -exp ID -json) and the baseline test reads back: a shared
// envelope around the experiment's typed cells. An experiment fills only the
// envelope fields it has; the rest stay out of the file.
type Report[C any] struct {
	// Experiment names the gate that wrote the report (Gate.Run stamps it),
	// so a baseline cannot be compared under the wrong experiment.
	Experiment string  `json:"experiment,omitempty"`
	Design     string  `json:"design,omitempty"`
	Scale      float64 `json:"scale"`
	Seed       int64   `json:"seed"`
	InputKB    int     `json:"input_kb,omitempty"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Cells      []C     `json:"cells"`
	// Metrics snapshots the run's live instruments (Options.Metrics non-nil).
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// Write writes the report, indented, to w.
func (r *Report[C]) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Row is one comparable line of a report, projected from the experiment's
// typed cells: the comparator sees only rows, so every experiment is gated
// by the same rule. Timings stay in the cells and the rendered table and are
// never projected: wall clock is compared in benchmark/, in alternating
// pairs, not here.
type Row struct {
	// Key identifies the row across runs.
	Key string
	// Exact columns are deterministic for a fixed scale/seed/input and must
	// equal the baseline's: ints and int slices exactly, floats to 1e-9
	// relative (absorbing only JSON round-trip formatting). A row's key
	// fixes its column layout.
	Exact []Col
}

// Col is one named exact column.
type Col struct {
	Name string
	V    any
}

// AnyReport is a *Report[C] with its cell type erased: what a caller holds
// between two calls on the Gate that produced it.
type AnyReport interface {
	Write(w io.Writer) error
}

// Gate is one gated experiment: a single measurement run feeds the rendered
// table, the JSON report and the comparison against a stored baseline.
type Gate interface {
	ID() string
	// Run measures the experiment once, instrumented, so the report carries
	// a metrics snapshot.
	Run(o Options) (AnyReport, error)
	// Read loads a stored report of this experiment.
	Read(r io.Reader) (AnyReport, error)
	// Table renders a report Run or Read returned.
	Table(rep AnyReport) *Table
	// Compare checks cur against base, both from Run or Read, and returns
	// one message per drifted row (none = pass).
	Compare(base, cur AnyReport) []string
}

// gate is the Gate of one experiment with cell type C: everything that
// differs between the gated experiments.
type gate[C any] struct {
	id string
	// metrics is the EnableMetrics hook of the subsystem whose counters the
	// report snapshots; nil when Options.Metrics alone binds them.
	metrics func(*obs.Registry)
	run     func(Options) (*Report[C], error)
	rows    func(*Report[C]) []Row
	table   func(*Report[C]) *Table
}

func (g *gate[C]) ID() string { return g.id }

func (g *gate[C]) Run(o Options) (AnyReport, error) {
	o.Metrics = obs.NewRegistry()
	if g.metrics != nil {
		g.metrics(o.Metrics)
		defer g.metrics(nil)
	}
	rep, err := g.run(o)
	if err != nil {
		return nil, err
	}
	rep.Experiment = g.id
	return rep, nil
}

// Read parses a report previously written by Write. A report that does not
// name this experiment is rejected.
func (g *gate[C]) Read(r io.Reader) (AnyReport, error) {
	var rep Report[C]
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, fmt.Errorf("exp: bad %s report: %w", g.id, err)
	}
	if rep.Experiment != g.id {
		return nil, fmt.Errorf("exp: report was written by %q, not %s", rep.Experiment, g.id)
	}
	if len(rep.Cells) == 0 {
		return nil, fmt.Errorf("exp: %s report has no cells", g.id)
	}
	return &rep, nil
}

func (g *gate[C]) Table(rep AnyReport) *Table { return g.table(rep.(*Report[C])) }

// tables is the experiment's Registry runner: an uninstrumented run rendered
// as its table.
func (g *gate[C]) tables(o Options) ([]*Table, error) {
	rep, err := g.run(o)
	if err != nil {
		return nil, err
	}
	return []*Table{g.table(rep)}, nil
}

// Compare is the one baseline comparator. Rows are matched by key; a
// baseline row missing from cur is flagged, extra rows in cur are fine.
// Exact columns are compared only when both reports ran the same scale and
// seed — otherwise the workloads legitimately differ — and a different input
// size is flagged outright, since the counts of two different inputs are not
// comparable. Nothing else is compared.
func (g *gate[C]) Compare(baseRep, curRep AnyReport) (bad []string) {
	base, cur := baseRep.(*Report[C]), curRep.(*Report[C])
	if base.InputKB != cur.InputKB {
		return []string{fmt.Sprintf("input size %d KB does not match baseline's %d KB", cur.InputKB, base.InputKB)}
	}
	sameRun := base.Scale == cur.Scale && base.Seed == cur.Seed

	got := make(map[string]Row)
	for _, r := range g.rows(cur) {
		got[r.Key] = r
	}
	for _, b := range g.rows(base) {
		c, ok := got[b.Key]
		if !ok {
			bad = append(bad, b.Key+": missing from report")
			continue
		}
		if !sameRun {
			continue
		}
		var drift []string
		for i, bc := range b.Exact {
			if cv := c.Exact[i].V; !sameValue(cv, bc.V) {
				drift = append(drift, fmt.Sprintf("%s %v, baseline %v", bc.Name, cv, bc.V))
			}
		}
		if len(drift) > 0 {
			bad = append(bad, fmt.Sprintf("%s: changed on a same-scale/seed run: %s", b.Key, strings.Join(drift, "; ")))
		}
	}
	return bad
}

func sameValue(a, b any) bool {
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		return ok && math.Abs(x-y) <= 1e-9*math.Max(math.Abs(x), math.Abs(y))
	case []int:
		y, ok := b.([]int)
		return ok && slices.Equal(x, y)
	}
	return a == b
}
