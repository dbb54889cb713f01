package exp

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"time"

	"impala"
	"impala/internal/artifact"
	"impala/internal/obs"
	"impala/internal/server"
	"impala/internal/topo"
	"impala/internal/workload"
)

// clusterKs is the shard-count sweep for cluster dispatch (K=1 has no
// cluster to dispatch to; shardspeed covers the single-shard story).
var clusterKs = []int{2, 4}

// clusterBenches spans the four workload families, reusing shardspeed's
// family representatives so the two sweeps describe the same automata.
var clusterBenches = []string{"Snort", "Hamming", "RandomForest", "CoreRings"}

// clusterTopo is one named topology the sweep places every shard plan onto.
type clusterTopo struct {
	Name string
	Spec string // a -topo flag value (compact or inline JSON)
}

// clusterTopos sweeps a flat two-domain cluster and a three-domain cluster
// with skewed bandwidths and a distant third domain — the shapes where the
// placement's makespan and cut-cost terms pull in different directions.
var clusterTopos = []clusterTopo{
	{Name: "uniform2", Spec: "node0,node1"},
	{Name: "skewed3", Spec: `{"domains": [{"name": "big", "bandwidth": 2},
		{"name": "mid"}, {"name": "far", "bandwidth": 0.5}],
		"cost": [[0, 1, 4], [1, 0, 4], [4, 4, 0]]}`},
}

// ClusterCell is one (benchmark, K, topology) point of the cluster sweep:
// the shard plan placed onto the topology's domains, sealed into a v4
// artifact, deployed as one worker process per domain behind a frontend,
// and cross-checked in-run against a single process hosting every shard.
// Everything but MBPerSec is deterministic for a fixed scale/seed and
// compared exactly by the regression gate.
type ClusterCell struct {
	Benchmark string `json:"benchmark"`
	Family    string `json:"family"`
	Topology  string `json:"topology"`
	Shards    int    `json:"shards"`
	Domains   int    `json:"domains"`
	States    int    `json:"states"`
	// ShardDomain maps each shard to its placed domain; DomainStates is the
	// per-domain hosted state total — the placement the artifact seals.
	ShardDomain  []int `json:"shard_domain"`
	DomainStates []int `json:"domain_states"`
	// CutCost is the placement's report-merge traffic × domain distance.
	CutCost float64 `json:"cut_cost"`
	// Matches is the merged match count the frontend returned; Bytes the
	// payload. Both were verified against the single-process response.
	Matches int64 `json:"matches"`
	Bytes   int64 `json:"bytes"`
	// MBPerSec is end-to-end frontend throughput over loopback HTTP
	// (informational; the gate never reads it).
	MBPerSec float64 `json:"mb_per_sec"`
}

// ClusterSweepReport runs the cluster-dispatch sweep: for every workload
// family and K in {2,4}, compile a K-shard machine, place the shard plan
// onto each topology, seal plan + placement into a v4 artifact, round-trip
// it through the binary codec, then stand up one worker per domain (each
// loading only its domain's shard subset) behind a frontend — all
// in-process over loopback HTTP. Every cell cross-checks the frontend's
// merged one-shot rows byte-for-byte against a single process hosting every
// shard, checks both against the canonical in-process match set, and runs
// the NDJSON stream path through the same fan-out. A divergence fails the
// run, so a report only exists for a correct cluster.
func ClusterSweepReport(o Options) (*Report[ClusterCell], error) {
	o = o.withDefaults()
	names := o.Benchmarks
	if len(names) == 0 {
		names = clusterBenches
	}
	rep := &Report[ClusterCell]{
		Design:     "Impala 4-bit stride-4 (16 bits/cycle)",
		Scale:      o.Scale,
		Seed:       o.Seed,
		InputKB:    o.InputKB,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	perBench := len(clusterKs) * len(clusterTopos)
	cells := make([]ClusterCell, len(names)*perBench)
	if err := o.forEachCell(len(names), func(i int) error {
		b, ok := workload.Get(names[i])
		if !ok {
			return fmt.Errorf("exp: unknown benchmark %q", names[i])
		}
		n8, err := o.generate(b)
		if err != nil {
			return err
		}
		input := workload.Input(n8, o.InputKB*1024, o.Seed+3)
		for j, k := range clusterKs {
			m, err := impala.CompileAutomaton(n8, impala.Config{StrideDims: 4, Seed: o.Seed, Shards: k})
			if err != nil {
				return err
			}
			ref := canonicalRows(m.Match(input))
			a := m.Artifact()
			if a.Shards == nil {
				return fmt.Errorf("exp: %s: %d-shard machine sealed no shard plan", names[i], k)
			}
			for l, ct := range clusterTopos {
				t, err := topo.LoadSpec(ct.Spec)
				if err != nil {
					return err
				}
				mw, err := topo.MergeWeights(a.NFA, a.Shards.Plan)
				if err != nil {
					return err
				}
				pl, err := topo.Place(a.Shards.Plan, mw, t, topo.Options{Seed: o.Seed})
				if err != nil {
					return err
				}
				a.SetTopo(&topo.Sealed{Topology: t, ShardDomain: pl.ShardDomain})

				// Round-trip through the binary codec: the cluster below
				// serves the decoded artifact, the way deployed workers do.
				var buf bytes.Buffer
				if err := a.Save(&buf); err != nil {
					return err
				}
				a2, err := artifact.Load(bytes.NewReader(buf.Bytes()))
				if err != nil {
					return err
				}

				cell := ClusterCell{
					Benchmark:    names[i],
					Family:       string(b.Family),
					Topology:     ct.Name,
					Shards:       k,
					Domains:      len(t.Domains),
					States:       a2.NFA.NumStates(),
					ShardDomain:  pl.ShardDomain,
					DomainStates: pl.DomainStates,
					CutCost:      pl.CutCost,
					Bytes:        int64(len(input)),
				}
				if err := runClusterCell(&cell, a2, t, input, ref, o.Metrics); err != nil {
					return fmt.Errorf("exp: %s K=%d %s: %w", names[i], k, ct.Name, err)
				}
				cells[i*perBench+j*len(clusterTopos)+l] = cell
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	rep.Cells = cells
	rep.Metrics = o.snapshot()
	return rep, nil
}

// matchRow mirrors the serving boundary's {"end", "pattern"} row.
type matchRow struct {
	End     int `json:"end"`
	Pattern int `json:"pattern"`
}

// canonicalRows converts in-process matches to the serving boundary's
// canonical (end, pattern) order.
func canonicalRows(ms []impala.Match) []matchRow {
	rows := make([]matchRow, len(ms))
	for i, m := range ms {
		rows[i] = matchRow{End: m.End, Pattern: m.Pattern}
	}
	slices.SortFunc(rows, func(a, b matchRow) int {
		if a.End != b.End {
			return a.End - b.End
		}
		return a.Pattern - b.Pattern
	})
	return rows
}

// loopback serves h on an ephemeral 127.0.0.1 listener and returns the base
// URL plus a shutdown func.
func loopback(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), func() { hs.Close() }, nil
}

// runClusterCell stands up the cell's cluster — one worker per topology
// domain plus a single-process reference server — and fills the cell's
// measured fields after the cross-checks pass.
func runClusterCell(cell *ClusterCell, a *artifact.Artifact, t topo.Topology, input []byte, ref []matchRow, metrics *obs.Registry) error {
	// The single-process reference: every shard in one server.
	sm, err := impala.MachineFromArtifact(a)
	if err != nil {
		return err
	}
	ssrv := server.New(server.Config{})
	defer ssrv.Drain()
	ssrv.Tenants().Install("bench", sm)
	singleURL, stopSingle, err := loopback(ssrv.Handler())
	if err != nil {
		return err
	}
	defer stopSingle()

	// One worker per domain, each hosting only its placed shard subset —
	// a domain with no shards still runs (an idle worker answers with zero
	// matches, which the merge must tolerate).
	var specs []server.WorkerSpec
	for _, name := range t.Names() {
		wm, err := impala.MachineFromArtifactDomain(a, name)
		if err != nil {
			return err
		}
		wsrv := server.New(server.Config{})
		defer wsrv.Drain()
		wsrv.Tenants().Install("bench", wm)
		url, stop, err := loopback(wsrv.Handler())
		if err != nil {
			return err
		}
		defer stop()
		specs = append(specs, server.WorkerSpec{Name: name, URL: url})
	}
	fe, err := server.NewFrontend(server.ClusterConfig{
		Workers:        specs,
		WorkerTimeout:  time.Minute,
		HealthInterval: -1, // hermetic: no background probes
		Metrics:        metrics,
	})
	if err != nil {
		return err
	}
	defer fe.Drain()
	feURL, stopFE, err := loopback(fe.Handler())
	if err != nil {
		return err
	}
	defer stopFE()

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	defer client.CloseIdleConnections()

	// One-shot cross-check: the frontend's merged rows must be
	// byte-identical with the single process's, and both must equal the
	// canonical in-process set.
	fRows, err := postMatchRows(client, feURL+"/v1/bench/match", input)
	if err != nil {
		return fmt.Errorf("frontend match: %w", err)
	}
	sRows, err := postMatchRows(client, singleURL+"/v1/bench/match", input)
	if err != nil {
		return fmt.Errorf("single-process match: %w", err)
	}
	if !bytes.Equal(fRows.raw, sRows.raw) {
		return fmt.Errorf("frontend rows diverge from single process (%d vs %d rows)",
			len(fRows.rows), len(sRows.rows))
	}
	if !slices.Equal(fRows.rows, ref) {
		return fmt.Errorf("served rows diverge from in-process matches (%d vs %d)",
			len(fRows.rows), len(ref))
	}
	if fRows.bytes != len(input) || sRows.bytes != len(input) {
		return fmt.Errorf("served byte counts %d/%d, want %d", fRows.bytes, sRows.bytes, len(input))
	}

	// Stream cross-check: the fanned NDJSON stream must deliver the same
	// match set and a clean (non-partial) done line.
	if err := streamCheck(client, feURL+"/v1/bench/stream", input, ref); err != nil {
		return fmt.Errorf("frontend stream: %w", err)
	}

	// Timed pass (informational): best of three one-shot rounds.
	best := time.Duration(1 << 62)
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		if _, err := postMatchRows(client, feURL+"/v1/bench/match", input); err != nil {
			return err
		}
		if w := time.Since(t0); w < best {
			best = w
		}
	}
	cell.Matches = int64(len(ref))
	cell.MBPerSec = float64(len(input)) / best.Seconds() / 1e6
	return nil
}

// matchRowsResult is one decoded one-shot response: the raw concatenated
// row bytes (for the byte-identity check) plus the decoded rows.
type matchRowsResult struct {
	raw   []byte
	rows  []matchRow
	bytes int
}

func postMatchRows(client *http.Client, url string, input []byte) (*matchRowsResult, error) {
	resp, err := client.Post(url, "application/octet-stream", bytes.NewReader(input))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var mr struct {
		Bytes   int               `json:"bytes"`
		Matches []json.RawMessage `json:"matches"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		return nil, fmt.Errorf("bad response: %w", err)
	}
	res := &matchRowsResult{bytes: mr.Bytes, rows: make([]matchRow, len(mr.Matches))}
	for i, rm := range mr.Matches {
		res.raw = append(res.raw, rm...)
		res.raw = append(res.raw, '\n')
		if err := json.Unmarshal(rm, &res.rows[i]); err != nil {
			return nil, fmt.Errorf("bad match row: %w", err)
		}
	}
	return res, nil
}

// streamCheck drives one NDJSON stream through url and verifies the
// relayed match lines (sorted into canonical order — the stream interleaves
// worker legs) against ref and the done line's totals.
func streamCheck(client *http.Client, url string, input []byte, ref []matchRow) error {
	resp, err := client.Post(url, "application/octet-stream", bytes.NewReader(input))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var rows []matchRow
	var done struct {
		Done          *bool    `json:"done"`
		Bytes         int64    `json:"bytes"`
		Matches       int64    `json:"matches"`
		Partial       bool     `json:"partial"`
		FailedWorkers []string `json:"failed_workers"`
	}
	sawDone := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if err := json.Unmarshal(line, &done); err != nil {
			return fmt.Errorf("bad stream line: %w", err)
		}
		if done.Done != nil {
			sawDone = true
			break
		}
		var row matchRow
		if err := json.Unmarshal(line, &row); err != nil {
			return fmt.Errorf("bad match line: %w", err)
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !sawDone {
		return fmt.Errorf("stream ended without a done line")
	}
	if done.Partial || len(done.FailedWorkers) > 0 {
		return fmt.Errorf("healthy stream reported partial (failed: %v)", done.FailedWorkers)
	}
	if done.Bytes != int64(len(input)) {
		return fmt.Errorf("done line counted %d bytes, want %d", done.Bytes, len(input))
	}
	if done.Matches != int64(len(rows)) {
		return fmt.Errorf("done line counted %d matches, relayed %d", done.Matches, len(rows))
	}
	slices.SortFunc(rows, func(a, b matchRow) int {
		if a.End != b.End {
			return a.End - b.End
		}
		return a.Pattern - b.Pattern
	})
	if !slices.Equal(rows, ref) {
		return fmt.Errorf("streamed rows diverge from in-process matches (%d vs %d)", len(rows), len(ref))
	}
	return nil
}

// clusterRows projects one row per (benchmark, K, topology) cell with every
// column exact: the placement is byte-identical across worker counts and the
// match set is defined by the automaton. The in-run cross-checks (frontend vs
// single process vs in-process engine) already ran when the report was
// produced; this catches behavior drift between runs.
func clusterRows(r *Report[ClusterCell]) []Row {
	rows := make([]Row, len(r.Cells))
	for i, c := range r.Cells {
		rows[i] = Row{
			Key: fmt.Sprintf("%s K=%d %s", c.Benchmark, c.Shards, c.Topology),
			Exact: []Col{{"states", c.States}, {"domains", c.Domains},
				{"shard_domain", c.ShardDomain}, {"domain_states", c.DomainStates},
				{"cut_cost", c.CutCost}, {"matches", c.Matches}, {"bytes", c.Bytes}},
		}
	}
	return rows
}

// clusterTable renders the report in the harness's text-table format.
func clusterTable(r *Report[ClusterCell]) *Table {
	t := &Table{
		Title: "Cluster dispatch: topology placement, per-domain workers, frontend merge",
		Header: []string{"benchmark", "family", "topology", "K", "domains",
			"placement", "domain states", "cut", "matches", "MB/s"},
	}
	for _, c := range r.Cells {
		t.AddRow(c.Benchmark, c.Family, c.Topology,
			fmt.Sprint(c.Shards), fmt.Sprint(c.Domains),
			intsCompact(c.ShardDomain), intsCompact(c.DomainStates),
			f1(c.CutCost), fmt.Sprint(c.Matches), f1(c.MBPerSec))
	}
	t.AddNote("placement = each shard's domain index; every cell served through one worker process per domain behind a frontend")
	t.AddNote("every cell cross-checked: frontend-merged rows byte-identical to a single process hosting all shards, both equal to the in-process match set; stream fan-out verified too")
	return t
}

// intsCompact renders an int slice as "a,b,c".
func intsCompact(v []int) string {
	var b bytes.Buffer
	for i, x := range v {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprint(&b, x)
	}
	return b.String()
}
