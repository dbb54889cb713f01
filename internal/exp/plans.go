package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"impala"
	"impala/internal/artifact"
	"impala/internal/automata"
	"impala/internal/backend"
	"impala/internal/core"
	"impala/internal/dfa"
	"impala/internal/place"
	"impala/internal/score"
	"impala/internal/shard"
	"impala/internal/sim"
	"impala/internal/topo"
	"impala/internal/workload"
)

// PlanTable is the plan table: the plan quantities of every design point the
// evaluation compares — compiled shape, tier, shard and topology plans, the
// backends' capacity/area/energy model, and the report counts of one
// in-process run — as one row of named columns per (benchmark × design
// point). Every column is a pure function of the settings, so the table is
// deterministic: BENCH_plans.json holds it (impala-bench -exp plans -json)
// and TestPlans recomputes it. It holds no timing; wall clock is measured
// by benchmark/ and the go test -bench benchmarks (DESIGN.md, "The plan
// table").
type PlanTable struct {
	Scale   float64 `json:"scale"`
	Seed    int64   `json:"seed"`
	InputKB int     `json:"input_kb"`
	// Rows maps a row key to its columns; a column holds an int, a float64
	// or an []int (json.Number and []any in a table ReadPlans returns).
	Rows map[string]map[string]any `json:"rows"`
	// tables renders a computed table, one Table per design point.
	tables []*Table
}

// planRow is one row as a design point builds it, columns in presentation
// order.
type planRow struct {
	key  string
	cols []planCol
}

type planCol struct {
	name string
	v    any
}

// planBench is one benchmark's shared inputs: its automaton, the Impala
// 4-bit × 4 compile the plan stages run on, and the input stream.
type planBench struct {
	b     workload.Benchmark
	n8    *automata.NFA
	plain *core.Result
	input []byte
}

// planDesign is one design point: the benchmarks it covers (o.Benchmarks
// replaces them) and its rows for one benchmark.
type planDesign struct {
	title   string
	benches []string
	rows    func(o Options, p *planBench) ([]planRow, error)
}

// planFamilies is each workload family's most component-rich member, so a
// K-way split has real work to balance: Snort's regex components,
// RandomForest's tree widgets and CoreRings' hundreds of rings shard
// cleanly, while Hamming's four mesh components cap its useful K at 4.
var planFamilies = []string{"Snort", "Hamming", "RandomForest", "CoreRings"}

var planDesigns = []planDesign{
	{"Compile at Impala 4-bit × 4: worker sweep (workers=0 is serial and uncached)",
		[]string{"Snort", "Bro217", "Dotstar06", "Ranges05"}, compilePlanRows},
	{"Tier plan at Impala 4-bit × 4: default budgets, state-share gate off",
		[]string{"ExactMatch", "Snort", "Hamming", "RandomForest", "CoreRings"}, tierPlanRows},
	{"Backends at 16 bits/cycle: Impala capsule 4-bit × 4 vs CAM ternary 8-bit × 2",
		[]string{"ExactMatch", "Snort", "Hamming", "RandomForest"}, backendPlanRows},
	{"Shard plans: K-way partition, per-shard DFA budget of 4x the automaton's states",
		planFamilies, shardPlanRows},
	{"Cluster placements: K-shard plans on two topologies",
		planFamilies, clusterPlanRows},
}

// Plans computes the plan table at o's scale, seed and input size. Every
// benchmark × design point is one cell (Options.Parallel of them at once);
// the table is the same for any Parallel and GOMAXPROCS.
func Plans(o Options) (*PlanTable, error) {
	o = o.withDefaults()
	suites := make([][]workload.Benchmark, len(planDesigns))
	byName := map[string]*planBench{}
	var shared []*planBench
	for i, d := range planDesigns {
		suite, err := o.suite(d.benches...)
		if err != nil {
			return nil, err
		}
		suites[i] = suite
		for _, b := range suite {
			if byName[b.Name] == nil {
				byName[b.Name] = &planBench{b: b}
				shared = append(shared, byName[b.Name])
			}
		}
	}
	if err := o.forEachCell(len(shared), func(i int) error {
		p := shared[i]
		var err error
		if p.n8, err = o.generate(p.b); err != nil {
			return err
		}
		if p.plain, err = core.Compile(p.n8, core.Config{TargetBits: 4, StrideDims: 4}); err != nil {
			return err
		}
		p.input = workload.Input(p.n8, o.InputKB*1024, o.Seed+3)
		return nil
	}); err != nil {
		return nil, err
	}

	// One cell per design × benchmark, then one per scored universe; the
	// sections are assembled in cell order.
	type cell struct {
		section int
		run     func() ([]planRow, error)
	}
	var cells []cell
	for i, d := range planDesigns {
		for _, b := range suites[i] {
			p := byName[b.Name]
			cells = append(cells, cell{i, func() ([]planRow, error) { return d.rows(o, p) }})
		}
	}
	for _, u := range scoreUniverses {
		cells = append(cells, cell{len(planDesigns), func() ([]planRow, error) { return scorePlanRows(o, u) }})
	}
	rows := make([][]planRow, len(cells))
	if err := o.forEachCell(len(cells), func(i int) error {
		var err error
		rows[i], err = cells[i].run()
		return err
	}); err != nil {
		return nil, err
	}

	sections := make([][]planRow, len(planDesigns)+1)
	for i, c := range cells {
		sections[c.section] = append(sections[c.section], rows[i]...)
	}
	p := &PlanTable{Scale: o.Scale, Seed: o.Seed, InputKB: o.InputKB, Rows: map[string]map[string]any{}}
	for i, sec := range sections {
		title := "Scored universes: max-plus meshes, binary vs threshold-cleared report counts"
		if i < len(planDesigns) {
			title = planDesigns[i].title
		}
		p.tables = append(p.tables, planSectionTable(title, sec))
		if err := p.add(sec); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// add merges rows into the table. Two design points may key the same row
// (the tier plan and the shard sweep both describe a benchmark's compile);
// a column they share must agree.
func (p *PlanTable) add(rows []planRow) error {
	for _, r := range rows {
		cols := p.Rows[r.key]
		if cols == nil {
			cols = map[string]any{}
			p.Rows[r.key] = cols
		}
		for _, c := range r.cols {
			if v, ok := cols[c.name]; ok && !reflect.DeepEqual(v, c.v) {
				return fmt.Errorf("exp: row %s: %s is %v in one design point, %v in another", r.key, c.name, v, c.v)
			}
			cols[c.name] = c.v
		}
	}
	return nil
}

// Tables returns the computed table rendered one Table per design point.
func (p *PlanTable) Tables() []*Table { return p.tables }

// Write writes the table as indented JSON: rows and columns in key order,
// so equal tables are equal bytes.
func (p *PlanTable) Write(w io.Writer) error {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// ReadPlans reads a table Write wrote.
func ReadPlans(r io.Reader) (*PlanTable, error) {
	dec := json.NewDecoder(r)
	dec.UseNumber()
	var p PlanTable
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("exp: bad plan table: %w", err)
	}
	if len(p.Rows) == 0 {
		return nil, fmt.Errorf("exp: plan table has no rows")
	}
	return &p, nil
}

// ComparePlans checks cur against the baseline base and returns one message
// per difference (none = equal). The settings must match; rows are matched
// by key and columns by name, and a row or column only one side has is a
// difference. Ints and int slices must be equal, floats equal to 1e-9
// relative (absorbing only JSON formatting).
func ComparePlans(base, cur *PlanTable) []string {
	if base.Scale != cur.Scale || base.Seed != cur.Seed || base.InputKB != cur.InputKB {
		return []string{fmt.Sprintf("settings scale %g seed %d input %d KB, baseline's scale %g seed %d input %d KB",
			cur.Scale, cur.Seed, cur.InputKB, base.Scale, base.Seed, base.InputKB)}
	}
	b, err := base.numbers()
	if err != nil {
		return []string{"baseline: " + err.Error()}
	}
	c, err := cur.numbers()
	if err != nil {
		return []string{err.Error()}
	}
	var bad []string
	for _, key := range sortedKeys(b, c) {
		br, ok := b[key]
		if !ok {
			bad = append(bad, key+": not in the baseline")
			continue
		}
		cr, ok := c[key]
		if !ok {
			bad = append(bad, key+": missing")
			continue
		}
		var drift []string
		for _, name := range sortedKeys(br, cr) {
			bv, inBase := br[name]
			cv, inCur := cr[name]
			switch {
			case !inBase:
				drift = append(drift, name+" not in the baseline")
			case !inCur:
				drift = append(drift, name+" missing")
			case !sameNumber(bv, cv):
				drift = append(drift, fmt.Sprintf("%s %v, baseline %v", name, cv, bv))
			}
		}
		if len(drift) > 0 {
			bad = append(bad, key+": "+strings.Join(drift, "; "))
		}
	}
	return bad
}

// numbers returns the rows as ReadPlans would: every number a json.Number,
// every slice an []any, so a computed table and a read one compare alike.
func (p *PlanTable) numbers() (map[string]map[string]any, error) {
	b, err := json.Marshal(p.Rows)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var rows map[string]map[string]any
	return rows, dec.Decode(&rows)
}

// sameNumber compares two decoded JSON values: two integers exactly,
// other numbers to 1e-9 relative, arrays element by element.
func sameNumber(a, b any) bool {
	switch x := a.(type) {
	case json.Number:
		y, ok := b.(json.Number)
		if !ok {
			return false
		}
		xi, errX := x.Int64()
		yi, errY := y.Int64()
		if errX == nil && errY == nil {
			return xi == yi
		}
		xf, errX := x.Float64()
		yf, errY := y.Float64()
		return errX == nil && errY == nil && math.Abs(xf-yf) <= 1e-9*math.Max(math.Abs(xf), math.Abs(yf))
	case []any:
		y, ok := b.([]any)
		return ok && slices.EqualFunc(x, y, sameNumber)
	}
	return false
}

// sortedKeys returns the union of the maps' keys in order.
func sortedKeys[V any](a, b map[string]V) []string {
	var keys []string
	for _, m := range []map[string]V{a, b} {
		for k := range m {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	return slices.Compact(keys)
}

// planSectionTable renders one design point's rows: a column per name in
// first-use order, blank where a row lacks it.
func planSectionTable(title string, rows []planRow) *Table {
	t := &Table{Title: title, Header: []string{"row"}}
	at := map[string]int{}
	for _, r := range rows {
		for _, c := range r.cols {
			if _, ok := at[c.name]; !ok {
				at[c.name] = len(t.Header)
				t.Header = append(t.Header, c.name)
			}
		}
	}
	for _, r := range rows {
		cells := make([]string, len(t.Header))
		cells[0] = r.key
		for _, c := range r.cols {
			switch v := c.v.(type) {
			case float64:
				cells[at[c.name]] = fmt.Sprintf("%.4g", v)
			case []int:
				ints := make([]string, len(v))
				for i, x := range v {
					ints[i] = strconv.Itoa(x)
				}
				cells[at[c.name]] = strings.Join(ints, ",")
			default:
				cells[at[c.name]] = fmt.Sprint(v)
			}
		}
		t.AddRow(cells...)
	}
	return t
}

// compilePlanRows compiles the benchmark once per worker count, each with a
// fresh cover cache, plus once serially uncached (workers=0): the compiled
// shape is the same in every row. The serial workers=1 row also carries the
// cover-cache counts, deterministic only there — concurrent workers race to
// the first miss on a key.
func compilePlanRows(o Options, p *planBench) ([]planRow, error) {
	var rows []planRow
	for _, w := range []int{0, 1, 2, 4, 8} {
		res, err := core.Compile(p.n8, core.Config{TargetBits: 4, StrideDims: 4, Workers: max(w, 1), DisableCache: w == 0})
		if err != nil {
			return nil, err
		}
		r := planRow{fmt.Sprintf("%s workers=%d", p.b.Name, w), []planCol{
			{"states", res.NFA.NumStates()}, {"transitions", res.NFA.NumTransitions()}}}
		if w == 1 {
			r.cols = append(r.cols, planCol{"cache_hits", int(res.CacheHits)}, planCol{"cache_misses", int(res.CacheMisses)})
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// tierPlanRows is the tier plan of the compile with the DFA tier's state
// share gate off: how many components and states each tier takes.
func tierPlanRows(o Options, p *planBench) ([]planRow, error) {
	n := p.plain.NFA
	sel, err := dfa.Select(n, dfa.TierOptions{MinStateShare: -1})
	if err != nil {
		return nil, err
	}
	pl := sel.Seal().Plan
	return []planRow{{p.b.Name, []planCol{{"states", n.NumStates()}, {"ccs", len(pl.CCs)}, {"dfa_ccs", pl.DFACCs()},
		{"dfa_states", pl.DFAStates}, {"dfa_nfa_states", pl.DFANFAStates},
		{"nfa_tier_states", pl.NFAStates}, {"table_bytes", pl.DFATableBytes}}}}, nil
}

// planBackends compares both targets at 16 bits/cycle, so the capacity,
// area and energy columns differ by architecture, not by line rate.
var planBackends = []struct {
	name         string
	bits, stride int
}{
	{backend.DefaultName, 4, 4},
	{backend.CamName, 8, 2},
}

// backendPlanRows compiles the benchmark for each backend and reads the
// compiled shape, the backend's placement grouping (G4 units for impala,
// 256-row banks for cam) and its analytical model. A backend changes the
// hardware model, never the match semantics: both compiles must report
// alike on the input, a check the table run keeps because no test compiles
// one automaton for both backends.
func backendPlanRows(o Options, p *planBench) ([]planRow, error) {
	var rows []planRow
	var want []sim.Report
	for i, pt := range planBackends {
		bk, err := backend.Get(pt.name)
		if err != nil {
			return nil, err
		}
		res, err := core.Compile(p.n8, core.Config{TargetBits: pt.bits, StrideDims: pt.stride, Backend: pt.name})
		if err != nil {
			return nil, err
		}
		pl, err := bk.Place(res.NFA, place.Options{Seed: o.Seed})
		if err != nil {
			return nil, err
		}
		c, err := sim.Compile(res.NFA)
		if err != nil {
			return nil, err
		}
		got, _ := c.Run(p.input)
		if i == 0 {
			want = got
		} else if !sim.SameReports(want, got) {
			return nil, fmt.Errorf("exp: %s: backend %s reports %d, %s %d", p.b.Name, pt.name, len(got), planBackends[0].name, len(want))
		}
		md := bk.Model(res.NFA)
		rows = append(rows, planRow{p.b.Name + "/" + bk.Name(), []planCol{
			{"states", res.NFA.NumStates()}, {"rows", md.Rows}, {"groups", len(pl.G4s)}, {"units", md.Units},
			{"freq_ghz", md.FreqGHz}, {"throughput_gbps", md.ThroughputGbps}, {"total_mm2", md.TotalMM2},
			{"throughput_per_mm2", md.ThroughputPerMM2}, {"pj_per_byte", md.PJPerByte}}})
	}
	return rows, nil
}

// shardPlanRows partitions the compile K ways for K in {1,2,4,8}, each
// shard tier-planned under the same per-engine union-DFA budget: four times
// the automaton's states, the way a deployment caps DFA memory relative to
// ruleset size. One engine's budget admits only a prefix of the components;
// K shards carry K budgets, so the states left to the NFA tier shrink as K
// grows.
func shardPlanRows(o Options, p *planBench) ([]planRow, error) {
	n := p.plain.NFA
	budget := 4 * n.NumStates()
	rows := []planRow{{p.b.Name, []planCol{{"states", n.NumStates()}, {"ccs", len(n.ConnectedComponents())}, {"budget", budget}}}}
	for _, k := range []int{1, 2, 4, 8} {
		s, _, err := shard.Partition(n, shard.Options{Shards: k, Tier: &dfa.TierOptions{MaxStates: budget, MinStateShare: -1}})
		if err != nil {
			return nil, err
		}
		tiered, dfaStates, nfaStates := 0, 0, 0
		for i, states := range s.Plan.ShardStates() {
			t := s.Tiers[i]
			if t == nil {
				nfaStates += states
				continue
			}
			dfaStates += t.Plan.DFAStates
			nfaStates += t.Plan.NFAStates
			if t.DFA != nil {
				tiered++
			}
		}
		rows = append(rows, planRow{fmt.Sprintf("%s K=%d", p.b.Name, k), []planCol{
			{"max_shard_states", s.Plan.MaxStates()}, {"min_shard_states", s.Plan.MinStates()},
			{"tiered_shards", tiered}, {"dfa_states", dfaStates}, {"nfa_tier_states", nfaStates}}})
	}
	return rows, nil
}

// planTopos are a flat two-domain cluster and a three-domain one with
// skewed bandwidths and a distant third domain, where the placement's
// makespan and cut-cost terms pull in different directions.
var planTopos = []struct{ name, spec string }{
	{"uniform2", "node0,node1"},
	{"skewed3", `{"domains": [{"name": "big", "bandwidth": 2},
		{"name": "mid"}, {"name": "far", "bandwidth": 0.5}],
		"cost": [[0, 1, 4], [1, 0, 4], [4, 4, 0]]}`},
}

// clusterPlanRows places the untiered K-shard plan of the compile (K in
// {2,4}) onto each topology: each shard's domain, the states each domain
// hosts and the placement's cut cost, beside the match count of one
// in-process Match over the compile — the count a cluster of any K and
// topology serves, as internal/server's cluster tests check through a
// frontend.
func clusterPlanRows(o Options, p *planBench) ([]planRow, error) {
	n := p.plain.NFA
	pl, err := place.Place(n, place.Options{Seed: o.Seed})
	if err != nil {
		return nil, err
	}
	m, err := impala.MachineFromArtifact(artifact.FromResult(p.plain, pl, p.n8, artifact.Meta{Seed: o.Seed}))
	if err != nil {
		return nil, err
	}
	matches := len(m.Match(p.input))
	var rows []planRow
	for _, k := range []int{2, 4} {
		s, _, err := shard.Partition(n, shard.Options{Shards: k})
		if err != nil {
			return nil, err
		}
		mw, err := topo.MergeWeights(n, s.Plan)
		if err != nil {
			return nil, err
		}
		for _, tp := range planTopos {
			t, err := topo.LoadSpec(tp.spec)
			if err != nil {
				return nil, err
			}
			tpl, err := topo.Place(s.Plan, mw, t, topo.Options{Seed: o.Seed})
			if err != nil {
				return nil, err
			}
			rows = append(rows, planRow{fmt.Sprintf("%s K=%d %s", p.b.Name, k, tp.name), []planCol{
				{"states", n.NumStates()}, {"domains", len(t.Domains)},
				{"shard_domain", tpl.ShardDomain}, {"domain_states", tpl.DomainStates},
				{"cut_cost", tpl.CutCost}, {"matches", matches}, {"bytes", len(p.input)}}})
		}
	}
	return rows, nil
}

// scoreUniverse is one scored-matching workload: a mesh family, the
// alphabet its patterns and reads are drawn from, and the alignment cost
// scheme. The threshold follows from the pattern length, so perfect and
// single-edit reads clear it while two-edit reads do not.
type scoreUniverse struct {
	Name     string
	Mesh     string // "levenshtein" | "hamming"
	Alphabet string
	Length   int
	Dist     int
	Costs    workload.Costs
}

// scoreUniverses are DNA-read alignment (an edit-distance mesh over ACGT,
// whose substitution and insertion edges land on the same states with
// different weights) and fuzzy entity resolution (a Hamming mesh over
// record keys, every state's in-edges carrying one weight); the
// scalar_states column keeps the weight tables' difference visible.
var scoreUniverses = []scoreUniverse{
	{Name: "DNA-align", Mesh: "levenshtein", Alphabet: "ACGT", Length: 12, Dist: 2,
		Costs: workload.DefaultAlignCosts},
	{Name: "Entity-fuzzy", Mesh: "hamming", Alphabet: "aeilnorst", Length: 10, Dist: 2,
		Costs: workload.Costs{Match: 1, Mismatch: -1}},
}

// threshold is the universe's report cutoff: the lowest score any
// single-edit read can earn — a deletion ((L-1) matches plus one gap) on the
// edit-distance mesh, one substitution on Hamming. Every two-edit read
// scores strictly below it.
func (u scoreUniverse) threshold() float64 {
	if u.Mesh == "hamming" {
		return float64(u.Length-1)*u.Costs.Match + u.Costs.Mismatch
	}
	return float64(u.Length-1)*u.Costs.Match + u.Costs.Gap
}

// scorePatternCount sizes a universe's pattern set off the scale the way
// the benchmark suite does: 400 patterns at full scale, never fewer than
// two.
func scorePatternCount(scale float64) int {
	return max(int(scale*400+0.5), 2)
}

// plantedReads synthesizes a read stream for a scored universe: random
// background over the alphabet with planted copies of the patterns mutated
// by 0–3 edits, so the input holds perfect reads, reads the threshold
// admits, and reads it must reject. Deterministic for a fixed seed.
func plantedReads(r *rand.Rand, pats [][]byte, alphabet string, size int) []byte {
	buf := make([]byte, 0, size+32)
	sym := func() byte { return alphabet[r.Intn(len(alphabet))] }
	for len(buf) < size {
		for gap := 6 + r.Intn(18); gap > 0; gap-- {
			buf = append(buf, sym())
		}
		read := append([]byte(nil), pats[r.Intn(len(pats))]...)
		for edits := r.Intn(4); edits > 0 && len(read) > 2; edits-- {
			i := r.Intn(len(read))
			switch r.Intn(3) {
			case 0: // substitution
				read[i] = sym()
			case 1: // deletion
				read = append(read[:i], read[i+1:]...)
			default: // insertion
				read = append(read[:i], append([]byte{sym()}, read[i:]...)...)
			}
		}
		buf = append(buf, read...)
	}
	return buf[:size]
}

// scorePlanRows generates the universe's 8-bit mesh and weight table and
// runs its planted reads once on the binary kernel and once on the scored
// form a machine serves (the mesh less its threshold-dead states): the
// structural match count and how many of those clear the threshold.
func scorePlanRows(o Options, u scoreUniverse) ([]planRow, error) {
	pats := workload.RandomPatterns(rand.New(rand.NewSource(o.Seed)), scorePatternCount(o.Scale), u.Length, u.Alphabet)
	build := workload.ScoredLevenshtein
	if u.Mesh == "hamming" {
		build = workload.ScoredHamming
	}
	n, w, err := build(pats, u.Dist, u.Costs, u.threshold())
	if err != nil {
		return nil, err
	}
	input := plantedReads(rand.New(rand.NewSource(o.Seed+3)), pats, u.Alphabet, o.InputKB*1024)
	binary, err := sim.Compile(n)
	if err != nil {
		return nil, err
	}
	sub, sw, _ := automata.PruneThreshold(n, w)
	scored, err := score.Compile(sub, sw)
	if err != nil {
		return nil, err
	}
	binaryReports, _ := binary.Run(input)
	scoredReports, _ := scored.Run(input)
	return []planRow{{u.Name, []planCol{{"patterns", len(pats)}, {"states", n.NumStates()},
		{"weighted_edges", w.NumEdges()}, {"scalar_states", w.MixedStates(n)}, {"threshold", w.Threshold},
		{"binary_reports", len(binaryReports)}, {"scored_reports", len(scoredReports)}}}}, nil
}
