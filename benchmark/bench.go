package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"impala"
)

// options are the knobs of one run. Only the seed and the window come from
// the command line; the rest are constants the tests shorten.
type options struct {
	Seed int64
	// Window is the measured phase: the timed window of an end-to-end run;
	// a traced run's measuring loop takes four fifths of it, which leaves
	// the rest for rebuilding the engines it replays.
	Window time.Duration
	// Warmup is the untimed closed-loop phase that fills engine pools,
	// sync.Pools and connections.
	Warmup time.Duration
	// MinSetups and SetupFor size the repeated set-ups of an end-to-end run
	// beyond the one that serves the window: at least MinSetups, and more
	// while they fit in SetupFor, half of each before and half after.
	MinSetups int
	SetupFor  time.Duration
	// LoadFor is how long LoadMachine is repeated for load_ms, in two bursts.
	LoadFor time.Duration
	// TraceDir receives <workload>.trace.json from a traced run.
	TraceDir string
	// Wrap, when not nil, interposes on every mounted handler (tests only;
	// the traced run composes it with its span recorder).
	Wrap wrapFunc
}

func defaultOptions(seed int64, seconds float64) options {
	return options{
		Seed:      seed,
		Window:    time.Duration(seconds * float64(time.Second)),
		Warmup:    time.Second,
		MinSetups: 4,
		SetupFor:  2 * time.Second,
		LoadFor:   2 * time.Second,
	}
}

// clients is the closed loop's connection count: the host has 2 cores, and
// more clients than cores would measure the scheduler.
const clients = 2

// maxSetups caps the repeated set-ups of a cheap workload.
const maxSetups = 16

// result is one run of one workload.
type result struct {
	Workload   string           `json:"workload"`
	Traced     bool             `json:"traced"`
	Attempted  int              `json:"attempted"`
	Failed     int              `json:"failed"`
	FirstError string           `json:"first_error,omitempty"`
	Metrics    map[string]value `json:"metrics"`
	// Info holds readings printed for context and never compared: the timed
	// window's median and tail latency and mean throughput.
	Info map[string]value `json:"info,omitempty"`
	// Ledger is the traced run's self-time attribution, outermost first.
	Ledger []ledgerLine `json:"ledger,omitempty"`
}

// count folds a window's outcome into the run's totals.
func (r *result) count(l load) {
	r.Attempted += l.Attempted
	r.Failed += l.Failed
	if r.FirstError == "" && l.FirstError != nil {
		r.FirstError = l.FirstError.Error()
	}
}

// firstRequest sends one verified request: what a daemon pays between
// listening and its first answer, lazy initialization included. (A window
// of zero still sends one request per connection.)
func firstRequest(c *client, bodies []body) load {
	return c.drive(bodies, 1, 0)
}

// runTimed measures the end-to-end metrics: repeated set-ups, a warm-up, and
// one timed closed-loop window with tracing and every EnableMetrics off.
func runTimed(s spec, o options) (*result, error) {
	src, err := s.source()
	if err != nil {
		return nil, err
	}
	bodies, err := s.corpus(src, o.Seed)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: s.Name}
	m := newMetrics(endToEnd)

	// Set-up: rules to a daemon that has answered its first request, from a
	// collected heap. It is repeated in two bursts, one before everything
	// else and one after, so that the median does not come from one stretch
	// of the host alone; the set-up between them stays up for the window.
	var setups, resident []float64
	setUp := func() (*deployment, *client, error) {
		runtime.GC()
		t0 := time.Now()
		d, err := deploy(s, nil, o.Wrap)
		if err != nil {
			return nil, nil, err
		}
		c := newClient(d, s, clients)
		res.count(firstRequest(c, bodies))
		setups = append(setups, time.Since(t0).Seconds())
		resident = append(resident, float64(d.ResidentBytes)/1e6)
		return d, c, nil
	}
	setUpBurst := func() error {
		for began, n := time.Now(), 0; n < maxSetups/2 && (n < o.MinSetups/2 || time.Since(began) < o.SetupFor/2); n++ {
			d, c, err := setUp()
			if err != nil {
				return err
			}
			c.Close()
			d.Close()
		}
		return nil
	}
	if err := setUpBurst(); err != nil {
		return nil, err
	}
	d, c, err := setUp()
	if err != nil {
		return nil, err
	}
	defer d.Close()
	defer c.Close()
	m.set("artifact_mb", float64(len(d.Sealed))/1e6, 0)

	// load_ms is the fastest LoadMachine of two bursts, one before the
	// warm-up and one after the timed window: a noisy stretch of the host
	// that swallows one burst whole has passed by the other. Each load starts
	// from a collected heap, so that how much of a collection cycle falls
	// into it is the same every time.
	var loads []float64
	var loaded *impala.Machine
	loadBurst := func() error {
		for began, n := time.Now(), 0; n < 5 || time.Since(began) < o.LoadFor/2; n++ {
			runtime.GC()
			t0 := time.Now()
			if loaded, err = impala.LoadMachine(bytes.NewReader(d.Sealed)); err != nil {
				return err
			}
			loads = append(loads, float64(time.Since(t0).Nanoseconds())/1e6)
		}
		return nil
	}
	if err := loadBurst(); err != nil {
		return nil, err
	}
	m.set("modelled_gbps_per_mm2", loaded.Model().ThroughputPerMM2, 0)

	warm := c.drive(bodies, clients, o.Warmup)
	res.count(warm)

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	l := c.drive(bodies, clients, o.Window)
	runtime.ReadMemStats(&ms1)
	res.count(l)
	mb := float64(l.PayloadBytes) / 1e6
	m.set("scan_ns_per_byte", l.Floor.value(), l.Floor.n)
	m.set("allocs_per_mb", ratio(float64(ms1.Mallocs-ms0.Mallocs), mb), l.Floor.n)
	m.set("alloc_kb_per_mb", ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e3, mb), l.Floor.n)

	if err := loadBurst(); err != nil {
		return nil, err
	}
	m.set("load_ms", quantile(loads, 0), len(loads))
	if err := setUpBurst(); err != nil {
		return nil, err
	}
	// setup_s runs from the rules to a warm daemon, so it includes the fixed
	// warm-up as the issue defined it. That also steadies it: the set-up
	// proper is an allocation-heavy burst on both cores whose median moved
	// by up to 39 % between two sets of ten runs of one commit.
	m.set("setup_s", quantile(setups, 0.5)+warm.Wall.Seconds(), len(setups))
	m.set("resident_mb", quantile(resident, 0.5), len(resident))

	tailMS, pct := tail(l.LatMS)
	res.Info = map[string]value{
		"req_p50_ms":    {Value: quantile(l.LatMS, 0.5), Unit: "ms", Samples: len(l.LatMS)},
		"req_tail_ms":   {Value: tailMS, Unit: fmt.Sprintf("ms@p%g", pct), Samples: len(l.LatMS)},
		"scan_mb_per_s": {Value: ratio(mb, l.Wall.Seconds()), Unit: "MB/s", Samples: len(l.LatMS)},
	}
	res.Metrics = m.values
	return res, nil
}
