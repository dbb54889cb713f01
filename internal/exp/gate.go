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
// (impala-bench -exp ID -json) and reads back as a baseline (-check): a
// shared envelope around the experiment's typed cells. An experiment fills
// only the envelope fields it has; the rest stay out of the file.
type Report[C any] struct {
	// Experiment names the gate that wrote the report, so a baseline cannot
	// be checked against the wrong experiment. Absent from reports written
	// before the field existed.
	Experiment string  `json:"experiment,omitempty"`
	Design     string  `json:"design,omitempty"`
	Benchmark  string  `json:"benchmark,omitempty"`
	Scale      float64 `json:"scale"`
	Seed       int64   `json:"seed"`
	InputKB    int     `json:"input_kb,omitempty"`
	States     int     `json:"states,omitempty"`
	InputBytes int     `json:"input_bytes,omitempty"`
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
// by the same rules.
type Row struct {
	// Key identifies the row across runs.
	Key string
	// Exact columns are deterministic for a fixed scale/seed/input and must
	// equal the baseline's: ints and int slices exactly, floats to 1e-9
	// relative (absorbing only JSON round-trip formatting). A row's key
	// fixes its column layout.
	Exact []Col
	// Ratio is the row's one wall-clock claim, nil when it makes none.
	Ratio *Ratio
}

// Col is one named exact column.
type Col struct {
	Name string
	V    any
}

// Ratio is a measured quotient of two timings taken in the same run.
type Ratio struct {
	Name string
	V    float64
	// WallMS is the wall time of the run the ratio divides by. Below
	// CheckOptions.MinWallMS on the baseline side the ratio is scheduler
	// noise and is not gated.
	WallMS float64
	// Cores marks a speedup that parallel hardware produces. It is gated only
	// when the checker has at least the baseline's GOMAXPROCS and the
	// baseline row claims a win (>= 1): a row where parallelism lost ground
	// is a negative control whose exact depth is noise.
	Cores bool
}

// CheckOptions sets the comparator's wall-clock tolerances. Exact columns
// have none: they are deterministic, so any drift is a behavior change.
type CheckOptions struct {
	// SpeedupTolerance is the allowed fractional drop in a row's gated ratio
	// relative to the baseline (0.25 = a quarter slower before it counts as
	// a regression).
	SpeedupTolerance float64
	// MinWallMS is the baseline wall time below which a ratio is not gated.
	MinWallMS float64
}

func (o CheckOptions) withDefaults() CheckOptions {
	if o.SpeedupTolerance == 0 {
		o.SpeedupTolerance = 0.25
	}
	if o.MinWallMS == 0 {
		o.MinWallMS = 20
	}
	return o
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
	// one message per regression (none = pass) plus informational notes.
	Compare(base, cur AnyReport, opt CheckOptions) (bad, notes []string)
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
	// headline is a claim over the whole report that no single row carries
	// (opt has its defaults filled in). It returns a regression, a note, or
	// neither.
	headline func(base, cur *Report[C], opt CheckOptions) (bad, note string)
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

// Read parses a report previously written by Write — the baseline side of
// impala-bench -check. A report that names another experiment is rejected;
// one that names none (written before the field existed) is accepted.
func (g *gate[C]) Read(r io.Reader) (AnyReport, error) {
	var rep Report[C]
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, fmt.Errorf("exp: bad %s report: %w", g.id, err)
	}
	if rep.Experiment != "" && rep.Experiment != g.id {
		return nil, fmt.Errorf("exp: report was written by %s, not %s", rep.Experiment, g.id)
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
// Exact columns are compared only when both reports ran the same scale, seed
// and benchmark — otherwise the workloads legitimately differ — and a
// different input size is flagged outright, since neither the counts nor the
// ratios of two different inputs are comparable. A row's ratio may not fall
// more than SpeedupTolerance below the baseline's, under the guards
// documented on Ratio.
func (g *gate[C]) Compare(baseRep, curRep AnyReport, opt CheckOptions) (bad, notes []string) {
	base, cur := baseRep.(*Report[C]), curRep.(*Report[C])
	opt = opt.withDefaults()
	flag := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	if base.InputKB != cur.InputKB {
		flag("input size %d KB does not match baseline's %d KB; rerun with -input-kb %d",
			cur.InputKB, base.InputKB, base.InputKB)
		return bad, nil
	}
	sameRun := base.Scale == cur.Scale && base.Seed == cur.Seed && base.Benchmark == cur.Benchmark

	got := make(map[string]Row)
	for _, r := range g.rows(cur) {
		got[r.Key] = r
	}
	for _, b := range g.rows(base) {
		c, ok := got[b.Key]
		if !ok {
			flag("%s: missing from report", b.Key)
			continue
		}
		if sameRun {
			var drift []string
			for i, bc := range b.Exact {
				if cv := c.Exact[i].V; !sameValue(cv, bc.V) {
					drift = append(drift, fmt.Sprintf("%s %v, baseline %v", bc.Name, cv, bc.V))
				}
			}
			if len(drift) > 0 {
				flag("%s: changed on a same-scale/seed run: %s", b.Key, strings.Join(drift, "; "))
			}
		}
		br, cr := b.Ratio, c.Ratio
		if br == nil || cr == nil || br.WallMS < opt.MinWallMS {
			continue
		}
		if br.Cores && (cur.GOMAXPROCS < base.GOMAXPROCS || br.V < 1) {
			continue
		}
		if floor := br.V * (1 - opt.SpeedupTolerance); cr.V < floor {
			flag("%s: %s %.2fx below baseline %.2fx (floor %.2fx at %.0f%% tolerance)",
				b.Key, br.Name, cr.V, br.V, floor, opt.SpeedupTolerance*100)
		}
	}
	if g.headline != nil {
		b, note := g.headline(base, cur, opt)
		if b != "" {
			bad = append(bad, b)
		}
		if note != "" {
			notes = append(notes, note)
		}
	}
	return bad, notes
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
