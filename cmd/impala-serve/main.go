// impala-serve is the match-online daemon: it loads compiled-automaton
// artifacts (impalac -o machine.impala) into a multi-tenant registry and
// serves matching over HTTP — one-shot batched matching and long-lived
// chunked streaming — without ever running the compile pipeline.
//
// Usage:
//
//	impala-serve -load web=web.impala -load ids=snort.impala -listen :8600
//	impala-serve -dir artifacts/ -listen :8600 -ops :9090
//
//	curl -s --data-binary 'GET /index' localhost:8600/v1/web/match
//	cat flow.bin | curl -sN -T- localhost:8600/v1/web/stream
//	curl -s localhost:8600/v1/tenants
//	curl -s -X POST localhost:8600/v1/web/reload    # hot-swap after recompile
//
// Cluster roles (-role): a topology-sealed artifact (impalac -topo) deploys
// as worker processes, each hosting its domain's shard subset, behind a
// frontend that fans requests out and merges the report streams:
//
//	impala-serve -role worker -domain node0 -load web=web.impala -listen :8601
//	impala-serve -role worker -domain node1 -load web=web.impala -listen :8602
//	impala-serve -role frontend -workers node0=http://h1:8601,node1=http://h2:8602 -listen :8600
//
// The frontend's merged /match responses are byte-identical with a single
// process hosting every shard; a worker failure degrades to an explicit
// partial-result error (502) naming the failed workers.
//
// SIGINT/SIGTERM drain gracefully: the listener stops accepting, in-flight
// matches and streams complete, then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"impala/internal/dfa"
	"impala/internal/obs"
	"impala/internal/score"
	"impala/internal/server"
	"impala/internal/shard"
	"impala/internal/sim"
)

func main() {
	var (
		listen   = flag.String("listen", ":8600", "serving address")
		ops      = flag.String("ops", "", "ops endpoint address (/metrics JSON, /debug/vars, /debug/pprof); empty = disabled")
		dir      = flag.String("dir", "", "load every *.impala in this directory (tenant = file base name)")
		workers  = flag.String("workers", "", "single/worker roles: match pool size (0 = GOMAXPROCS); frontend role: comma-separated worker endpoints (name=URL or URL)")
		queue    = flag.Int("queue", 64, "match admission queue length (full queue = 503)")
		streams  = flag.Int("max-streams", 256, "concurrent streaming connections (excess = 503)")
		timeout  = flag.Duration("timeout", 10*time.Second, "per-request match timeout")
		maxBody  = flag.Int64("max-body", 16<<20, "maximum one-shot match payload bytes")
		drainFor = flag.Duration("drain-timeout", 30*time.Second, "shutdown drain deadline")

		role        = flag.String("role", "single", "process role: single | worker | frontend")
		domain      = flag.String("domain", "", "worker: host only the shards the artifact's topology places on this domain")
		workerTO    = flag.Duration("worker-timeout", 10*time.Second, "frontend: per-worker request timeout")
		healthEvery = flag.Duration("health-interval", 2*time.Second, "frontend: worker health-check cadence")
	)
	flag.Parse()

	switch *role {
	case "single", "worker", "frontend":
	default:
		fatal(fmt.Errorf("unknown -role %q (want single, worker or frontend)", *role))
	}
	if *domain != "" && *role != "worker" {
		fatal(fmt.Errorf("-domain requires -role worker"))
	}

	// One registry feeds both the server instruments and the streaming-layer
	// counters; the ops listener serves it live.
	var reg *obs.Registry
	if *ops != "" {
		reg = obs.NewRegistry()
		sim.EnableMetrics(reg)
		dfa.EnableMetrics(reg)
		shard.EnableMetrics(reg)
		score.EnableMetrics(reg)
	}

	var handler http.Handler
	var drain func()
	if *role == "frontend" {
		if *workers == "" {
			fatal(fmt.Errorf("-role frontend requires -workers name=URL,name=URL"))
		}
		specs, err := server.ParseWorkers(*workers)
		if err != nil {
			fatal(err)
		}
		fe, err := server.NewFrontend(server.ClusterConfig{
			Workers:        specs,
			WorkerTimeout:  *workerTO,
			HealthInterval: *healthEvery,
			MaxBodyBytes:   *maxBody,
			Metrics:        reg,
		})
		if err != nil {
			fatal(err)
		}
		for _, spec := range specs {
			fmt.Fprintf(os.Stderr, "impala-serve: worker %q at %s\n", spec.Name, spec.URL)
		}
		handler = fe.Handler()
		drain = fe.Drain
	} else {
		poolSize := 0
		if *workers != "" {
			var err error
			if poolSize, err = strconv.Atoi(*workers); err != nil {
				fatal(fmt.Errorf("-workers: want a pool size for role %q, got %q", *role, *workers))
			}
		}
		srv := server.New(server.Config{
			Workers:        poolSize,
			QueueLen:       *queue,
			MaxStreams:     *streams,
			RequestTimeout: *timeout,
			MaxBodyBytes:   *maxBody,
			Metrics:        reg,
		})
		loadTenants(srv, *dir, *domain)
		handler = srv.Handler()
		drain = srv.Drain
	}

	if *ops != "" {
		_, url, err := obs.Serve(*ops, reg)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "impala-serve: ops endpoint on %s\n", url)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{Handler: handler}
	fmt.Fprintf(os.Stderr, "impala-serve: role %s serving on %s\n", *role, ln.Addr())

	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "impala-serve: %s: draining (up to %s)\n", s, *drainFor)
		ctx, cancel := context.WithTimeout(context.Background(), *drainFor)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "impala-serve: shutdown: %v\n", err)
		}
		drain()
		fmt.Fprintln(os.Stderr, "impala-serve: drained cleanly")
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}
}

// loadTenants fills the registry from -load/-dir, restricted to a topology
// domain for -role worker.
func loadTenants(srv *server.Server, dir, domain string) {
	loads := append([]string(nil), loadFlags...)
	if dir != "" {
		paths, err := filepath.Glob(filepath.Join(dir, "*.impala"))
		if err != nil {
			fatal(err)
		}
		for _, p := range paths {
			name := strings.TrimSuffix(filepath.Base(p), ".impala")
			loads = append(loads, name+"="+p)
		}
	}
	if len(loads) == 0 {
		fatal(fmt.Errorf("no tenants: use -load name=artifact.impala or -dir"))
	}
	for _, lv := range loads {
		name, path, _ := strings.Cut(lv, "=")
		t, err := srv.Tenants().LoadFileDomain(name, path, domain)
		if err != nil {
			fatal(err)
		}
		bits, stride := t.Machine.Geometry()
		suffix := ""
		if domain != "" {
			suffix = fmt.Sprintf(", domain %q", domain)
		}
		if si := t.Machine.ScoreInfo(); si != nil {
			suffix += fmt.Sprintf(", scored (threshold %g)", si.Threshold)
		}
		md := t.Machine.Model()
		fmt.Fprintf(os.Stderr, "impala-serve: tenant %q: %d states, %d-bit stride-%d, %d groups (%s)%s\n",
			name, md.States, bits, stride, md.G4s, path, suffix)
	}
}

// loadFlags collects the repeatable -load values.
var loadFlags []string

func init() {
	flag.Func("load", "tenant=artifact.impala (repeatable)", func(v string) error {
		if !strings.Contains(v, "=") {
			return fmt.Errorf("want tenant=path, got %q", v)
		}
		loadFlags = append(loadFlags, v)
		return nil
	})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "impala-serve:", err)
	os.Exit(1)
}
