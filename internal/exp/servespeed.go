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
	"impala/internal/obs"
	"impala/internal/server"
	"impala/internal/workload"
)

// serveSpeedClients is the concurrency sweep measured per run.
var serveSpeedClients = []int{1, 8, 64}

// ServeCell is one row of the serving-throughput table: a fixed number of
// concurrent HTTP clients driving one-shot /match requests flat-out against
// a single artifact-backed tenant.
type ServeCell struct {
	Clients int
	// Requests completed across all clients; every response was checked
	// against the in-process match count (a mismatch fails the run).
	Requests int
	// BytesIn is the total payload matched.
	BytesIn int64
	WallMS  float64
	// MBPerSec is end-to-end HTTP match throughput (payload bytes / wall).
	MBPerSec  float64
	ReqPerSec float64
	// SpeedupVs1 is MBPerSec relative to the single-client row.
	SpeedupVs1 float64
}

// ServeReport is one run of the concurrency sweep: the served automaton and
// request size, and one cell per concurrency level.
type ServeReport struct {
	Benchmark  string
	States     int
	InputBytes int
	Cells      []ServeCell
}

// ServeSpeedReport measures impala-serve's one-shot match path end to end —
// HTTP request in, JSON matches out — at 1, 8 and 64 concurrent clients
// against a loopback listener hosting one tenant. The tenant machine is
// compiled once and served through the same Server/Registry/pool stack the
// daemon uses, so the numbers include admission, pooling and encode costs,
// not just the engine. Nothing else measures the many-clients axis yet, so
// the table is a plain experiment like simspeed: rendered, never compared.
func ServeSpeedReport(o Options) (*ServeReport, error) {
	o = o.withDefaults()
	suite, err := o.suite("Bro217")
	if err != nil {
		return nil, err
	}
	b := suite[0]
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

	reg := obs.NewRegistry()
	srv := server.New(server.Config{Metrics: reg})
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

	rep := &ServeReport{Benchmark: b.Name, States: n.NumStates(), InputBytes: len(input)}

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
	// Every request went through the serving stack: its match counter holds
	// each cell's warm-up and measured budget.
	want := int64(len(rep.Cells) * (totalRequests + 1))
	if got := reg.Snapshot().Counters["serve_match_requests_total"]; got != want {
		return nil, fmt.Errorf("exp: the server counted %d match requests, the sweep sent %d", got, want)
	}
	return rep, nil
}

// ServeSpeed is the servespeed experiment's Registry runner.
func ServeSpeed(o Options) ([]*Table, error) {
	rep, err := ServeSpeedReport(o)
	if err != nil {
		return nil, err
	}
	return []*Table{serveTable(rep)}, nil
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
func serveTable(r *ServeReport) *Table {
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
	t.AddNote("GOMAXPROCS=%d; end-to-end over loopback HTTP: admission pool, pooled bit-parallel engines, JSON encode included", runtime.GOMAXPROCS(0))
	t.AddNote("every response verified against the in-process match count")
	return t
}
