package core

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"impala/internal/automata"
	"impala/internal/bitvec"
	"impala/internal/espresso"
	"impala/internal/obs"
	"impala/internal/par"
)

// Vectorized temporal striding works on an edge-labeled transition graph
// rather than directly on the homogeneous automaton: nodes are the original
// 8-bit states plus two virtual sources (one for all-input starts, one for
// anchored starts), and every edge carries a MatchSet of stride-dims vector
// symbols. Striding then "repeatedly squares the input alphabet": one
// doubling step composes every two-edge path into a single edge whose label
// is the concatenation (cross product) of the two labels, Espresso-minimized.
// Reports that would fire mid-chunk are tracked as wildcard-padded report
// entries with their true sub-symbol offset — the paper's padding method.
// A final homogenization splits every node by distinct incoming label,
// yielding a homogeneous NFA that consumes dims sub-symbols per cycle.

// ekey identifies an edge class: the target node and the accumulated
// max-plus weight of the paths the edge stands for. Unweighted compiles key
// every edge with weight 0, so grouping — and therefore the output automaton
// — is unchanged. Weighted compiles partition paths into weight classes:
// the class label is the union of its member paths' labels, and the maximum
// over active classes of (source score + class weight) equals the maximum
// over the underlying paths, so the lifting is exact.
type ekey struct {
	to int32
	w  float64
}

// repKey identifies a mid-chunk report class: offset in sub-symbols within
// the chunk, the report code, and the accumulated path weight (0 throughout
// unweighted compiles).
type repKey struct {
	offset int
	code   int
	w      float64
}

// lgraph is the labeled transition graph.
type lgraph struct {
	bits int // sub-symbol width: 4 (Impala) or 8 (CA-mode)
	dims int // current stride: sub-symbols per chunk
	// adj[q][{r, w}] is the union of vector symbols labelling q -> r paths
	// of accumulated weight w.
	adj []map[ekey]automata.MatchSet
	// rep[q] holds mid-chunk report entries reachable from q (offset < dims).
	rep []map[repKey]automata.MatchSet
	// weighted records whether a weight table rides along (homogenize then
	// emits one for the output automaton).
	weighted bool
	// reportCode[e] is the report code of node e, or -1 if e does not report.
	reportCode []int
	vAll, v0   int32 // virtual source nodes
	esp        espresso.Options
	// workers bounds the per-node worker pool of the doubling steps; cpu
	// accumulates per-node work time across workers (nil = untimed); tr
	// records worker-batch spans (nil = untraced).
	workers int
	cpu     *atomic.Int64
	tr      *obs.Trace
}

// addCPU accumulates a work interval into the CPU-time counter.
func (g *lgraph) addCPU(t0 time.Time) {
	if g.cpu != nil {
		g.cpu.Add(int64(time.Since(t0)))
	}
}

// buildGraph constructs the base labeled graph from an 8-bit stride-1
// homogeneous automaton. For targetBits=4 the base chunk is one byte = two
// nibble dimensions (labels are Espresso decompositions of byte sets); for
// targetBits=8 it is one byte = one dimension.
func buildGraph(n *automata.NFA, w *automata.Weights, targetBits int, esp espresso.Options, workers int, cpu *atomic.Int64, tr *obs.Trace) (*lgraph, error) {
	if n.Bits != 8 || n.Stride != 1 {
		return nil, fmt.Errorf("core: striding requires an 8-bit stride-1 automaton, got %d-bit stride %d", n.Bits, n.Stride)
	}
	if err := n.Validate(); err != nil {
		return nil, fmt.Errorf("core: striding input invalid: %w", err)
	}
	var dims int
	switch targetBits {
	case 2:
		dims = 4
	case 4:
		dims = 2
	case 8:
		dims = 1
	default:
		return nil, fmt.Errorf("core: unsupported target symbol width %d", targetBits)
	}

	N := n.NumStates()
	g := &lgraph{
		bits:       targetBits,
		dims:       dims,
		adj:        make([]map[ekey]automata.MatchSet, N+2),
		rep:        make([]map[repKey]automata.MatchSet, N+2),
		reportCode: make([]int, N+2),
		vAll:       int32(N),
		v0:         int32(N + 1),
		esp:        esp,
		workers:    workers,
		cpu:        cpu,
		tr:         tr,
		weighted:   w != nil,
	}
	for i := range g.adj {
		g.adj[i] = map[ekey]automata.MatchSet{}
		g.rep[i] = map[repKey]automata.MatchSet{}
		g.reportCode[i] = -1
	}

	// Per-state base label: the state's byte set as a dims-dimensional
	// vector-symbol union. Decompositions are independent per state and are
	// where the Espresso work of this stage lives, so they run on the worker
	// pool; the memoized decomposition cache collapses the (few) distinct
	// byte sets of a real rule set into single computations.
	labels := make([]automata.MatchSet, N)
	par.TraceFor(tr, "stride/labels", workers, N, func(i int) {
		t0 := time.Now()
		set := byteSetOf(n.States[i].Match)
		switch targetBits {
		case 8:
			labels[i] = automata.MatchSet{automata.Rect{set}}
		case 4:
			rects := esp.Cache.DecomposeByteSet(set)
			ms := make(automata.MatchSet, 0, len(rects))
			for _, hl := range rects {
				ms = append(ms, automata.Rect{nibbleSet(hl.Hi), nibbleSet(hl.Lo)})
			}
			labels[i] = ms
		case 2:
			labels[i] = decomposeCrumbs(set, esp)
		}
		g.addCPU(t0)
	})
	for i := range n.States {
		if n.States[i].Report {
			g.reportCode[i] = n.States[i].ReportCode
		}
	}

	// Edge weights key the adjacency (0 throughout when unweighted); start
	// weights ride on the virtual-source edges, the restart self-loop adds
	// nothing.
	edgeW := func(q, j int) float64 {
		if w == nil {
			return 0
		}
		return w.Edge[q][j]
	}
	startW := func(q int) float64 {
		if w == nil {
			return 0
		}
		return w.Start[q]
	}
	for q := range n.States {
		for j, r := range n.States[q].Out {
			k := ekey{to: int32(r), w: edgeW(q, j)}
			g.adj[q][k] = g.adj[q][k].Union(labels[r]).Normalize()
		}
		switch n.States[q].Start {
		case automata.StartAllInput:
			g.adj[g.vAll][ekey{to: int32(q), w: startW(q)}] = labels[q].Clone()
		case automata.StartOfData:
			g.adj[g.v0][ekey{to: int32(q), w: startW(q)}] = labels[q].Clone()
		case automata.StartEven:
			return nil, fmt.Errorf("core: striding input state %d uses StartEven", q)
		}
	}
	// The all-input source restarts at every chunk boundary: a full-wildcard
	// self loop.
	g.adj[g.vAll][ekey{to: g.vAll}] = automata.MatchSet{automata.FullRect(dims, targetBits)}
	return g, nil
}

// minimizeLabel normalizes a label and Espresso-minimizes it when it has
// more than one rectangle.
func (g *lgraph) minimizeLabel(ms automata.MatchSet) automata.MatchSet {
	ms = ms.Normalize()
	if len(ms) <= 1 {
		return ms
	}
	return espresso.Minimize(ms, g.dims, g.bits, g.esp)
}

// cross concatenates every rect of a with every rect of b.
func cross(a, b automata.MatchSet) automata.MatchSet {
	out := make(automata.MatchSet, 0, len(a)*len(b))
	for _, ra := range a {
		for _, rb := range b {
			out = append(out, ra.Concat(rb))
		}
	}
	return out
}

// padWild appends extra full-wildcard dimensions to every rect of ms.
func padWild(ms automata.MatchSet, extra, bits int) automata.MatchSet {
	out := make(automata.MatchSet, len(ms))
	for i, r := range ms {
		out[i] = r.Concat(automata.FullRect(extra, bits))
	}
	return out
}

// double squares the graph's alphabet: edges become two-edge paths, mid-chunk
// reports are carried forward with wildcard padding, and first-half chunk
// ends at reporting nodes become new mid-chunk report entries.
// double squares the graph's alphabet. Each source node's out-edges and
// report entries are composed and minimized independently — node q only
// writes out.adj[q]/out.rep[q] and only reads the previous graph — so the
// whole step runs one node per work item on the worker pool, with results
// independent of the worker count.
func (g *lgraph) double() *lgraph {
	S := g.dims
	n := len(g.adj)
	out := &lgraph{
		bits:       g.bits,
		dims:       2 * S,
		adj:        make([]map[ekey]automata.MatchSet, n),
		rep:        make([]map[repKey]automata.MatchSet, n),
		reportCode: g.reportCode,
		vAll:       g.vAll,
		v0:         g.v0,
		esp:        g.esp,
		workers:    g.workers,
		cpu:        g.cpu,
		tr:         g.tr,
		weighted:   g.weighted,
	}
	for i := range out.adj {
		out.adj[i] = map[ekey]automata.MatchSet{}
		out.rep[i] = map[repKey]automata.MatchSet{}
	}

	par.TraceFor(g.tr, fmt.Sprintf("stride/double-to-%d", out.dims), g.workers, n, func(q int) {
		t0 := time.Now()
		// Deterministic iteration: sorted adjacency and report keys.
		mids := sortedAdjKeys(g.adj[q])
		// Path composition; weights add along the path (weight classes with
		// equal sums merge, which max-plus makes lossless).
		for _, m := range mids {
			lqm := g.adj[q][m]
			for _, r := range sortedAdjKeys(g.adj[m.to]) {
				nk := ekey{to: r.to, w: m.w + r.w}
				out.adj[q][nk] = out.adj[q][nk].Union(cross(lqm, g.adj[m.to][r]))
			}
		}
		// Reports from the first half, padded to the new width.
		for _, k := range sortedRepKeys(g.rep[q]) {
			out.rep[q][k] = out.rep[q][k].Union(padWild(g.rep[q][k], S, g.bits))
		}
		// Chunk-aligned first-half ends at reporting nodes become mid-chunk
		// reports at offset S.
		for _, e := range mids {
			if code := g.reportCode[e.to]; code >= 0 {
				k := repKey{offset: S, code: code, w: e.w}
				out.rep[q][k] = out.rep[q][k].Union(padWild(g.adj[q][e], S, g.bits))
			}
		}
		// Reports from the second half: first-half path then a report entry.
		for _, m := range mids {
			lqm := g.adj[q][m]
			for _, k := range sortedRepKeys(g.rep[m.to]) {
				nk := repKey{offset: S + k.offset, code: k.code, w: m.w + k.w}
				out.rep[q][nk] = out.rep[q][nk].Union(cross(lqm, g.rep[m.to][k]))
			}
		}
		// Minimize this node's labels (the Espresso-heavy part).
		for _, r := range sortedAdjKeys(out.adj[q]) {
			out.adj[q][r] = out.minimizeLabel(out.adj[q][r])
		}
		for _, k := range sortedRepKeys(out.rep[q]) {
			out.rep[q][k] = out.minimizeLabel(out.rep[q][k])
		}
		g.addCPU(t0)
	})
	return out
}

func sortedAdjKeys(m map[ekey]automata.MatchSet) []ekey {
	keys := make([]ekey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].to != keys[j].to {
			return keys[i].to < keys[j].to
		}
		return keys[i].w < keys[j].w
	})
	return keys
}

func sortedRepKeys(m map[repKey]automata.MatchSet) []repKey {
	keys := make([]repKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].offset != keys[j].offset {
			return keys[i].offset < keys[j].offset
		}
		if keys[i].code != keys[j].code {
			return keys[i].code < keys[j].code
		}
		return keys[i].w < keys[j].w
	})
	return keys
}

// homogenize converts the labeled graph into a homogeneous NFA: each node is
// split per distinct incoming (label, weight) class; mid-chunk report entries
// become dedicated wildcard-padded reporting STEs with exact report offsets.
// Every output STE therefore has a single entry weight — the accumulated
// weight of the chunk paths it stands for — which becomes the weight of all
// its in-edges (and its start weight) in the returned table. Unweighted
// graphs key everything with weight 0, so grouping is unchanged and the
// returned table is nil.
func (g *lgraph) homogenize() (*automata.NFA, *automata.Weights, error) {
	out := automata.New(g.bits, g.dims)
	// entryW[id] is the single entry weight of output STE id.
	var entryW []float64

	type steKey struct {
		node  int32
		label string
		w     float64
	}
	steOf := map[steKey]automata.StateID{}
	// ensureSTE returns (creating if needed) the STE for node e.to entered
	// with the given label at accumulated weight e.w.
	ensureSTE := func(e ekey, label automata.MatchSet) automata.StateID {
		label = label.Normalize()
		k := steKey{node: e.to, label: label.Key(), w: e.w}
		if id, ok := steOf[k]; ok {
			return id
		}
		s := automata.State{Match: label}
		if code := g.reportCode[e.to]; code >= 0 {
			s.Report = true
			s.ReportCode = code
			s.ReportOffset = g.dims
		}
		id := out.AddState(s)
		steOf[k] = id
		entryW = append(entryW, e.w)
		return id
	}

	type repSTEKey struct {
		label  string
		offset int
		code   int
		w      float64
	}
	repOf := map[repSTEKey]automata.StateID{}
	ensureRepSTE := func(label automata.MatchSet, k repKey) automata.StateID {
		label = label.Normalize()
		rk := repSTEKey{label: label.Key(), offset: k.offset, code: k.code, w: k.w}
		if id, ok := repOf[rk]; ok {
			return id
		}
		id := out.AddState(automata.State{
			Match:        label,
			Report:       true,
			ReportCode:   k.code,
			ReportOffset: k.offset,
		})
		repOf[rk] = id
		entryW = append(entryW, k.w)
		return id
	}

	// Pass 1: create all STEs reachable via edges and set start kinds from
	// the virtual sources.
	nodes := make([]int32, 0, len(g.adj))
	for q := range g.adj {
		nodes = append(nodes, int32(q))
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })

	// stesOf[q] collects the STEs representing node q (the split copies).
	stesOf := map[int32][]automata.StateID{}
	addSTE := func(q int32, id automata.StateID) {
		for _, e := range stesOf[q] {
			if e == id {
				return
			}
		}
		stesOf[q] = append(stesOf[q], id)
	}

	promoteStart := func(id automata.StateID, kind automata.StartKind) {
		cur := out.States[id].Start
		if kind == automata.StartAllInput || cur == automata.StartNone {
			out.States[id].Start = kind
		}
	}

	for _, q := range nodes {
		virtual := q == g.vAll || q == g.v0
		for _, e := range sortedAdjKeys(g.adj[q]) {
			if e.to == g.vAll || e.to == g.v0 {
				continue // virtual self-loop; start handling is implicit
			}
			id := ensureSTE(e, g.adj[q][e])
			addSTE(e.to, id)
			if virtual {
				if q == g.vAll {
					promoteStart(id, automata.StartAllInput)
				} else {
					promoteStart(id, automata.StartOfData)
				}
			}
		}
		for _, k := range sortedRepKeys(g.rep[q]) {
			id := ensureRepSTE(g.rep[q][k], k)
			if virtual {
				if q == g.vAll {
					promoteStart(id, automata.StartAllInput)
				} else {
					promoteStart(id, automata.StartOfData)
				}
			}
		}
	}

	// Pass 2: wire edges — every STE of node q enables the STE (r, label,
	// weight) for each outgoing edge, and q's report STEs.
	for _, q := range nodes {
		if q == g.vAll || q == g.v0 {
			continue
		}
		srcs := stesOf[q]
		if len(srcs) == 0 {
			continue // node never entered: unreachable
		}
		for _, e := range sortedAdjKeys(g.adj[q]) {
			if e.to == g.vAll || e.to == g.v0 {
				continue
			}
			dst := ensureSTE(e, g.adj[q][e])
			for _, s := range srcs {
				out.AddEdge(s, dst)
			}
		}
		for _, k := range sortedRepKeys(g.rep[q]) {
			dst := ensureRepSTE(g.rep[q][k], k)
			for _, s := range srcs {
				out.AddEdge(s, dst)
			}
		}
	}
	out.DedupEdges()
	var w *automata.Weights
	if g.weighted {
		// Each STE's in-edges (and its start enable) all carry its entry
		// weight; build the table, then drop unreachable states with their
		// weight rows.
		w = automata.NewWeights(out)
		for i := range out.States {
			if out.States[i].Start != automata.StartNone {
				w.Start[i] = entryW[i]
			}
			for j, t := range out.States[i].Out {
				w.Edge[i][j] = entryW[t]
			}
		}
	}
	if live := automata.Reachable(out); len(live) < out.NumStates() {
		if w != nil {
			w = w.Induced(out, live)
		}
		out = out.Induced(live)
	}
	if err := out.Validate(); err != nil {
		return nil, nil, fmt.Errorf("core: homogenize produced invalid automaton: %w", err)
	}
	return out, w, nil
}

// decomposeCrumbs splits a byte set into a minimal-ish union of
// 4-dimensional rectangles over 2-bit sub-symbols ("crumbs"): first the
// hi/lo nibble decomposition, then each nibble set into 2-crumb rectangles,
// cross-producted and Espresso-minimized.
func decomposeCrumbs(set bitvec.ByteSet, esp espresso.Options) automata.MatchSet {
	var out automata.MatchSet
	for _, hl := range esp.Cache.DecomposeByteSet(set) {
		hiRects := decomposeNibbleCrumbs(hl.Hi, esp)
		loRects := decomposeNibbleCrumbs(hl.Lo, esp)
		for _, hr := range hiRects {
			for _, lr := range loRects {
				out = append(out, hr.Concat(lr))
			}
		}
	}
	if len(out) > 1 {
		out = espresso.Minimize(out, 4, 2, espresso.Options{MaxIterations: 2, Cache: esp.Cache})
	}
	return out
}

// decomposeNibbleCrumbs splits a nibble set into 2-dimensional crumb
// rectangles.
func decomposeNibbleCrumbs(ns bitvec.NibbleSet, esp espresso.Options) automata.MatchSet {
	var on automata.MatchSet
	for _, v := range ns.Values() {
		on = append(on, automata.Rect{
			bitvec.ByteOf(v >> 2),
			bitvec.ByteOf(v & 3),
		})
	}
	if len(on) > 1 {
		on = espresso.Minimize(on, 2, 2, espresso.Options{MaxIterations: 2, Cache: esp.Cache})
	}
	return on
}

// Stride transforms an 8-bit stride-1 homogeneous automaton into an
// equivalent homogeneous automaton over targetBits-wide sub-symbols (2, 4
// or 8) consuming dims sub-symbols per cycle. dims must be the base chunk
// size (4 for 2-bit targets, 2 for 4-bit, 1 for 8-bit) times a power of
// two. The per-state decompositions and per-node label minimizations of
// every doubling step run on a bounded worker pool (workers <= 0 selects
// GOMAXPROCS); the output is byte-identical for every worker count.
func Stride(n *automata.NFA, targetBits, dims int, esp espresso.Options, workers int) (*automata.NFA, error) {
	out, _, _, err := strideWork(n, nil, targetBits, dims, esp, workers, nil)
	return out, err
}

// strideWork is Stride plus an optional weight table threaded through the
// transform (see ekey — path weights key the composed edges, so the output
// table scores the strided automaton exactly) and the aggregate per-work-item
// time across workers (the CPU-time figure Compile reports next to the
// stage's wall time).
func strideWork(n *automata.NFA, w *automata.Weights, targetBits, dims int, esp espresso.Options, workers int, tr *obs.Trace) (*automata.NFA, *automata.Weights, time.Duration, error) {
	var cpu atomic.Int64
	g, err := buildGraph(n, w, targetBits, esp, workers, &cpu, tr)
	if err != nil {
		return nil, nil, 0, err
	}
	if dims < g.dims {
		return nil, nil, 0, fmt.Errorf("core: stride %d below base chunk %d", dims, g.dims)
	}
	for cur := g.dims; cur < dims; cur *= 2 {
		g = g.double()
	}
	if g.dims != dims {
		return nil, nil, 0, fmt.Errorf("core: stride %d is not a power-of-two multiple of the base chunk", dims)
	}
	out, ow, err := g.homogenize()
	if ow != nil && w != nil {
		ow.Threshold = w.Threshold
	}
	return out, ow, time.Duration(cpu.Load()), err
}
