package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"time"

	"impala"
	"impala/internal/artifact"
	"impala/internal/obs"
	"impala/internal/server"
	"impala/internal/topo"
)

// tenant is the name every deployment installs its machine under.
const tenant = "bench"

// clusterTopology is the two-domain topology the cluster workload is sealed
// for, in the -topo flag's compact form.
const clusterTopology = "node0,node1"

// wrapFunc interposes on a handler the benchmark mounts. The traced run
// wraps every handler in its span recorder; the tests use it to corrupt a
// reply.
type wrapFunc func(name string, h http.Handler) http.Handler

// deployment is one workload's rule set compiled, sealed, loaded and
// listening: the state a daemon is in once it has started.
type deployment struct {
	// URL is the endpoint request bodies are posted to.
	URL string
	// Sealed is the artifact file's bytes and Decoded the artifact the
	// serving machines were built from.
	Sealed  []byte
	Decoded *artifact.Artifact
	// Machines and Handlers are the serving machines and their unwrapped
	// handlers by mount name: "server", or "worker:<domain>" and "frontend".
	Machines map[string]*impala.Machine
	Handlers map[string]http.Handler
	// ResidentBytes is the live heap the loaded tenants hold.
	ResidentBytes int64
	// SaveTime is the time artifact serialization took.
	SaveTime time.Duration

	stops []func()
}

// Close stops every listener and drains every server, last mounted first.
func (d *deployment) Close() {
	for i := len(d.stops) - 1; i >= 0; i-- {
		d.stops[i]()
	}
}

// heapAlloc is the live heap after the garbage of earlier work has gone: two
// collections, because pooled and finalized objects take two to be freed.
func heapAlloc() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// listen serves h on an ephemeral loopback port. stop closes the listener
// and its connections and returns once Serve has.
func listen(h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // always ErrServerClosed: stop is the only way out
	}()
	return "http://" + ln.Addr().String(), func() { _ = hs.Close(); <-done }, nil
}

// deploy takes the workload from rules to a listening daemon through the
// path an operator takes: generate, CompileAutomaton, seal, load the sealed
// bytes, install, listen. reg (nil when metrics are off) receives the server
// instruments; wrap (nil for none) interposes on each handler.
func deploy(s spec, reg *obs.Registry, wrap wrapFunc) (d *deployment, err error) {
	src, err := s.source()
	if err != nil {
		return nil, err
	}
	m, err := impala.CompileAutomaton(src.NFA, s.config(src))
	if err != nil {
		return nil, err
	}
	a := m.Artifact()
	var domains []string
	if s.Cluster {
		t, err := topo.LoadSpec(clusterTopology)
		if err != nil {
			return nil, err
		}
		mw, err := topo.MergeWeights(a.NFA, a.Shards.Plan)
		if err != nil {
			return nil, err
		}
		pl, err := topo.Place(a.Shards.Plan, mw, t, topo.Options{Seed: ruleSeed})
		if err != nil {
			return nil, err
		}
		a.SetTopo(&topo.Sealed{Topology: t, ShardDomain: pl.ShardDomain})
		domains = t.Names()
	}
	var buf bytes.Buffer
	t0 := time.Now()
	if err := a.Save(&buf); err != nil {
		return nil, err
	}
	d = &deployment{
		Sealed:   buf.Bytes(),
		SaveTime: time.Since(t0),
		Machines: map[string]*impala.Machine{},
		Handlers: map[string]http.Handler{},
	}
	defer func() {
		if err != nil {
			d.Close()
		}
	}()

	before := heapAlloc()
	d.Decoded, err = artifact.Load(bytes.NewReader(d.Sealed))
	if err != nil {
		return nil, err
	}
	if s.Cluster {
		for _, dom := range domains {
			d.Machines["worker:"+dom], err = impala.MachineFromArtifactDomain(d.Decoded, dom)
			if err != nil {
				return nil, err
			}
		}
	} else {
		d.Machines["server"], err = impala.MachineFromArtifact(d.Decoded)
		if err != nil {
			return nil, err
		}
	}
	d.ResidentBytes = heapAlloc() - before

	mount := func(name string, h http.Handler) (string, error) {
		d.Handlers[name] = h
		if wrap != nil {
			h = wrap(name, h)
		}
		url, stop, err := listen(h)
		if err != nil {
			return "", err
		}
		d.stops = append(d.stops, stop)
		return url, nil
	}
	serve := func(name string) (string, error) {
		srv := server.New(server.Config{Metrics: reg})
		d.stops = append(d.stops, srv.Drain)
		srv.Tenants().Install(tenant, d.Machines[name])
		return mount(name, srv.Handler())
	}
	base := ""
	if s.Cluster {
		var workers []server.WorkerSpec
		for _, dom := range domains {
			url, err := serve("worker:" + dom)
			if err != nil {
				return nil, err
			}
			workers = append(workers, server.WorkerSpec{Name: dom, URL: url})
		}
		fe, err := server.NewFrontend(server.ClusterConfig{
			Workers:        workers,
			HealthInterval: -1, // no background probes among the measured requests
			Metrics:        reg,
		})
		if err != nil {
			return nil, err
		}
		d.stops = append(d.stops, fe.Drain)
		if base, err = mount("frontend", fe.Handler()); err != nil {
			return nil, err
		}
	} else if base, err = serve("server"); err != nil {
		return nil, err
	}
	endpoint := "/match"
	if s.Stream {
		endpoint = "/stream"
	}
	d.URL = base + "/v1/" + tenant + endpoint
	return d, nil
}

// reqHeader carries the traced client's request identifier to the span
// recorder on the first handler the request reaches.
const reqHeader = "X-Bench-Req"

// client posts bodies to one deployment over keep-alive connections and
// checks every reply against the body's expected rows.
type client struct {
	hc     *http.Client
	url    string
	stream bool
}

func newClient(d *deployment, s spec, conns int) *client {
	return &client{
		hc:     &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: conns}},
		url:    d.URL,
		stream: s.Stream,
	}
}

func (c *client) Close() { c.hc.CloseIdleConnections() }

// chunkReader hands the transport at most streamChunk bytes per Read; with
// no declared length the upload then goes out as one HTTP chunk per Read.
type chunkReader struct{ rest []byte }

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.rest) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), streamChunk)], r.rest)
	r.rest = r.rest[n:]
	return n, nil
}

// wireLine decodes a /match row, a /stream match line or a /stream done
// line; Done tells the last apart.
type wireLine struct {
	End           int      `json:"end"`
	Pattern       int      `json:"pattern"`
	Score         *float64 `json:"score"`
	Done          *bool    `json:"done"`
	Bytes         int      `json:"bytes"`
	Matches       int      `json:"matches"`
	Partial       bool     `json:"partial"`
	FailedWorkers []string `json:"failed_workers"`
}

func (l wireLine) row() row {
	r := row{End: l.End, Pattern: l.Pattern}
	if l.Score != nil {
		r.Scored, r.Score = true, *l.Score
	}
	return r
}

// do sends one body and returns the client-observed latency — request start
// to the last reply byte read — and the reply size. The reply is verified
// after the clock stops; any transport error, status other than 200 or row
// difference is an error. id, when not empty, marks the request as traced.
func (c *client) do(b *body, id string, reply *bytes.Buffer) (lat time.Duration, replyBytes int, err error) {
	var upload io.Reader = bytes.NewReader(b.Data)
	if c.stream {
		upload = &chunkReader{rest: b.Data}
	}
	req, err := http.NewRequest(http.MethodPost, c.url, upload)
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if id != "" {
		req.Header.Set(reqHeader, id)
	}
	reply.Reset()
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	_, err = reply.ReadFrom(resp.Body)
	lat = time.Since(t0)
	resp.Body.Close()
	if err != nil {
		return lat, reply.Len(), err
	}
	if resp.StatusCode != http.StatusOK {
		return lat, reply.Len(), fmt.Errorf("status %d: %.200s", resp.StatusCode, bytes.TrimSpace(reply.Bytes()))
	}
	if c.stream {
		err = checkStream(reply.Bytes(), b)
	} else {
		err = checkMatch(reply.Bytes(), b)
	}
	return lat, reply.Len(), err
}

func checkMatch(reply []byte, b *body) error {
	var doc struct {
		Bytes   int        `json:"bytes"`
		Matches []wireLine `json:"matches"`
	}
	if err := json.Unmarshal(reply, &doc); err != nil {
		return fmt.Errorf("bad reply: %w", err)
	}
	if doc.Bytes != len(b.Data) {
		return fmt.Errorf("reply counted %d bytes, sent %d", doc.Bytes, len(b.Data))
	}
	got := make([]row, len(doc.Matches))
	for i, l := range doc.Matches {
		got[i] = l.row()
	}
	return diffRows(got, b.Want)
}

func checkStream(reply []byte, b *body) error {
	dec := json.NewDecoder(bytes.NewReader(reply))
	var got []row
	for {
		var l wireLine
		if err := dec.Decode(&l); err != nil {
			return fmt.Errorf("stream ended without a done line: %w", err)
		}
		if l.Done == nil {
			got = append(got, l.row())
			continue
		}
		if l.Partial || len(l.FailedWorkers) > 0 {
			return fmt.Errorf("stream reported partial (failed workers %v)", l.FailedWorkers)
		}
		if l.Bytes != len(b.Data) || l.Matches != len(got) {
			return fmt.Errorf("done line counted %d bytes and %d matches, sent %d and read %d",
				l.Bytes, l.Matches, len(b.Data), len(got))
		}
		break
	}
	// A stream emits rows as they complete, which within one cycle need not
	// be (end, pattern) order.
	sortRows(got)
	return diffRows(got, b.Want)
}

func diffRows(got, want []row) error {
	if slices.Equal(got, want) {
		return nil
	}
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Errorf("row %d is %+v, reference has %+v (%d rows against %d)", i, got[i], want[i], len(got), len(want))
		}
	}
	return fmt.Errorf("%d rows, reference has %d", len(got), len(want))
}

// load is what one or more closed-loop windows observed.
type load struct {
	// Floor holds, per body, the fastest verified request in ns per body
	// byte; LatMS every verified request's latency in milliseconds.
	Floor        floors
	LatMS        []float64
	Attempted    int
	Failed       int
	FirstError   error
	PayloadBytes int64
	ReplyBytes   int64
	Wall         time.Duration
}

// add folds another client's share of the same window into l.
func (l *load) add(o load) {
	l.Floor.merge(o.Floor)
	l.LatMS = append(l.LatMS, o.LatMS...)
	l.Attempted += o.Attempted
	l.Failed += o.Failed
	if l.FirstError == nil {
		l.FirstError = o.FirstError
	}
	l.PayloadBytes += o.PayloadBytes
	l.ReplyBytes += o.ReplyBytes
}

// record folds the outcome of one request for body i into l.
func (l *load) record(i int, b *body, lat time.Duration, replyBytes int, err error) {
	l.Attempted++
	if err != nil {
		l.Failed++
		if l.FirstError == nil {
			l.FirstError = err
		}
		return
	}
	l.Floor.add(i, float64(lat.Nanoseconds())/float64(len(b.Data)))
	l.LatMS = append(l.LatMS, float64(lat.Nanoseconds())/1e6)
	l.PayloadBytes += int64(len(b.Data))
	l.ReplyBytes += int64(replyBytes)
}

// drive runs a closed loop of conns clients for the window: each sends its
// next body only after it has verified the previous reply, and each sends at
// least one.
func (c *client) drive(bodies []body, conns int, window time.Duration) load {
	var mu sync.Mutex
	var total load
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(window)
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var l load
			var reply bytes.Buffer
			for i := g * len(bodies) / conns; ; i++ {
				b := &bodies[i%len(bodies)]
				lat, n, err := c.do(b, "", &reply)
				l.record(i%len(bodies), b, lat, n, err)
				if !time.Now().Before(deadline) {
					break
				}
			}
			mu.Lock()
			defer mu.Unlock()
			total.add(l)
		}(g)
	}
	wg.Wait()
	total.Wall = time.Since(start)
	return total
}
