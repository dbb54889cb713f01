package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"impala"
	"impala/internal/server"
	"impala/internal/workload"
)

// serveSpeedClients is the concurrency sweep measured per run.
var serveSpeedClients = []int{1, 8, 64}

// ServeCell is one row of the serving-throughput table: a fixed number of
// concurrent HTTP clients driving one-shot /match requests flat-out against
// a single artifact-backed tenant.
type ServeCell struct {
	Clients int `json:"clients"`
	// Requests completed across all clients; every response was checked
	// against the in-process match count (a mismatch fails the run).
	Requests int `json:"requests"`
	// BytesIn is the total payload matched.
	BytesIn int64 `json:"bytes_in"`
	// Matches is the total matches returned over HTTP.
	Matches int64   `json:"matches"`
	WallMS  float64 `json:"wall_ms"`
	// MBPerSec is end-to-end HTTP match throughput (payload bytes / wall).
	MBPerSec  float64 `json:"mb_per_sec"`
	ReqPerSec float64 `json:"req_per_sec"`
	// SpeedupVs1 is MBPerSec relative to the single-client row.
	SpeedupVs1 float64 `json:"speedup_vs_1"`
}

// ServeSpeedReport measures impala-serve's one-shot match path end to end —
// HTTP request in, JSON matches out — at 1, 8 and 64 concurrent clients
// against a loopback listener hosting one tenant. The tenant machine is
// compiled once and served through the same Server/Registry/pool stack the
// daemon uses, so the numbers include admission, pooling and encode costs,
// not just the engine.
func ServeSpeedReport(o Options) (*Report[ServeCell], error) {
	o = o.withDefaults()
	name := "Bro217"
	if len(o.Benchmarks) > 0 {
		name = o.Benchmarks[0]
	}
	b, ok := workload.Get(name)
	if !ok {
		return nil, fmt.Errorf("exp: unknown benchmark %q", name)
	}
	n, err := o.generate(b)
	if err != nil {
		return nil, err
	}
	m, err := impala.CompileAutomaton(n, impala.Config{StrideDims: 4, Seed: o.Seed})
	if err != nil {
		return nil, err
	}
	input := workload.Input(n, o.InputKB*1024, o.Seed+3)
	wantMatches := len(m.Match(input))

	srv := server.New(server.Config{Metrics: o.Metrics})
	defer srv.Drain()
	srv.Tenants().Install("bench", m)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	url := fmt.Sprintf("http://%s/v1/bench/match", ln.Addr())

	rep := &Report[ServeCell]{
		Design:     "Impala 4-bit stride-4 (16 bits/cycle)",
		Benchmark:  name,
		Scale:      o.Scale,
		Seed:       o.Seed,
		States:     n.NumStates(),
		InputBytes: len(input),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	// Total request count is fixed across rows so every concurrency level
	// does the same work; clients split it evenly.
	const totalRequests = 96
	for _, clients := range serveSpeedClients {
		cell, err := serveSweepCell(url, input, wantMatches, clients, totalRequests)
		if err != nil {
			return nil, err
		}
		if len(rep.Cells) > 0 {
			cell.SpeedupVs1 = cell.MBPerSec / rep.Cells[0].MBPerSec
		} else {
			cell.SpeedupVs1 = 1
		}
		rep.Cells = append(rep.Cells, cell)
	}
	rep.Metrics = o.snapshot()
	return rep, nil
}

// serveSweepCell drives one concurrency level: `clients` goroutines share a
// fixed request budget, each POSTing the full input and verifying the match
// count in the response.
func serveSweepCell(url string, input []byte, wantMatches, clients, totalRequests int) (ServeCell, error) {
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients,
	}}
	defer client.CloseIdleConnections()

	// One warm-up request primes connections and the engine pool.
	if err := postOnce(client, url, input, wantMatches); err != nil {
		return ServeCell{}, err
	}

	var remaining atomic.Int64
	remaining.Store(int64(totalRequests))
	var matches atomic.Int64
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for remaining.Add(-1) >= 0 {
				if err := postOnce(client, url, input, wantMatches); err != nil {
					errs <- err
					return
				}
				matches.Add(int64(wantMatches))
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	select {
	case err := <-errs:
		return ServeCell{}, err
	default:
	}
	total := int64(totalRequests) * int64(len(input))
	return ServeCell{
		Clients:   clients,
		Requests:  totalRequests,
		BytesIn:   total,
		Matches:   matches.Load(),
		WallMS:    float64(wall.Microseconds()) / 1e3,
		MBPerSec:  float64(total) / wall.Seconds() / 1e6,
		ReqPerSec: float64(totalRequests) / wall.Seconds(),
	}, nil
}

func postOnce(client *http.Client, url string, input []byte, wantMatches int) error {
	resp, err := client.Post(url, "application/octet-stream", bytes.NewReader(input))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("exp: match status %d: %s", resp.StatusCode, body)
	}
	var mr struct {
		Matches []json.RawMessage `json:"matches"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		return fmt.Errorf("exp: bad match response: %w", err)
	}
	if len(mr.Matches) != wantMatches {
		return fmt.Errorf("exp: served %d matches, in-process says %d", len(mr.Matches), wantMatches)
	}
	return nil
}

// serveTable renders the report for terminal output.
func serveTable(r *Report[ServeCell]) *Table {
	t := &Table{
		Title: fmt.Sprintf("HTTP match serving throughput (%s, %d states, %d KB requests)",
			r.Benchmark, r.States, r.InputBytes/1024),
		Header: []string{"clients", "requests", "wall ms", "MB/s", "req/s", "speedup"},
	}
	for _, c := range r.Cells {
		t.AddRow(fmt.Sprint(c.Clients), fmt.Sprint(c.Requests),
			f1(c.WallMS), f1(c.MBPerSec), f1(c.ReqPerSec),
			fmt.Sprintf("%.2fx", c.SpeedupVs1))
	}
	t.AddNote("end-to-end over loopback HTTP: admission pool, pooled bit-parallel engines, JSON encode included")
	t.AddNote("every response verified against the in-process match count")
	return t
}

// serveRows projects a "workload" row for the served automaton and input
// (exact) and one row per concurrency level: its request and match counts
// exactly — the workload is deterministic, so a drift means the served
// results changed, not the clock — and its speedup over the single-client
// row, guarded by that row's wall. A single-core run projects no ratio: it
// has no mechanism for concurrency speedup, so its ratios hover around 1.0
// by noise alone and make no claim.
func serveRows(r *Report[ServeCell]) []Row {
	rows := []Row{{Key: "workload", Exact: []Col{{"states", r.States}, {"input_bytes", r.InputBytes}}}}
	for _, c := range r.Cells {
		row := Row{
			Key:   fmt.Sprintf("%d clients", c.Clients),
			Exact: []Col{{"requests", c.Requests}, {"matches", c.Matches}},
		}
		if r.GOMAXPROCS > 1 {
			row.Ratio = &Ratio{Name: "speedup_vs_1", V: c.SpeedupVs1, WallMS: r.Cells[0].WallMS, Cores: true}
		}
		rows = append(rows, row)
	}
	return rows
}
