// impala-bench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	impala-bench -exp all                 # every experiment
//	impala-bench -exp fig11 -scale 0.05   # one experiment, larger scale
//	impala-bench -exp table4 -bench Snort,TCP -strides 1,2,4
//	impala-bench -list                    # the experiment IDs
//
// -parallel N runs N benchmark × design-point cells of the compile-heavy
// experiments concurrently (results are identical; per-cell wall times get
// noisy).
//
// Six experiments are gated: with -json FILE one measurement run renders
// the table and writes the report (cells plus a metrics snapshot) — how the
// committed BENCH_*.json baselines are written (make bench). -json takes
// exactly one gated experiment. internal/exp's TestBaselines reruns each at
// its baseline's scale, seed and input and fails on any drifted column; the
// comparator's rules are stated once in DESIGN.md ("Gated experiments").
// What each experiment puts under them:
//
//	experiment    baseline            exact columns
//	compilespeed  BENCH_compile.json  compiled shape; cache hits/misses on the
//	                                  serial workers=1 row
//	tierspeed     BENCH_sim.json      tier-plan shape
//	backendcmp    BENCH_backend.json  shape, placement grouping,
//	                                  capacity/energy/area model
//	shardspeed    BENCH_shard.json    workload and partition shape per K
//	clustersweep  BENCH_cluster.json  placement, domain loads, cut cost, served
//	                                  match/byte counts
//	scorespeed    BENCH_score.json    mesh shape, threshold, report counts
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"impala/internal/exp"
)

func main() {
	var (
		expID    = flag.String("exp", "all", "experiment ID(s), comma-separated, or 'all'")
		scale    = flag.Float64("scale", 0.02, "benchmark scale relative to paper size (1.0 = full)")
		seed     = flag.Int64("seed", 1, "generator/search seed")
		benches  = flag.String("bench", "", "comma-separated benchmark subset (default: all 21)")
		inputKB  = flag.Int("input-kb", 64, "input stream size for the energy and engine-speed experiments")
		strides  = flag.String("strides", "", "comma-separated stride list for table4 (default 1,2,4,8)")
		dumpDir  = flag.String("dump", "", "write each table as CSV into this directory")
		parallel = flag.Int("parallel", 1, "benchmark × design-point cells to run concurrently (tables identical for any value; >1 perturbs per-cell wall times)")
		jsonOut  = flag.String("json", "", "write the gated experiment's report as JSON to this file")
		list     = flag.Bool("list", false, "list experiment IDs and exit")
	)
	flag.Parse()

	if *list {
		for _, id := range exp.IDs() {
			fmt.Println(id)
		}
		return
	}

	o := exp.Options{Scale: *scale, Seed: *seed, InputKB: *inputKB, DumpDir: *dumpDir, Parallel: *parallel}
	if *benches != "" {
		o.Benchmarks = strings.Split(*benches, ",")
	}
	if *strides != "" {
		for _, s := range strings.Split(*strides, ",") {
			v, err := strconv.Atoi(s)
			if err != nil {
				fatal(fmt.Errorf("bad stride %q", s))
			}
			o.Strides = append(o.Strides, v)
		}
	}

	reg := exp.Registry()
	ids := exp.IDs()
	if *expID != "all" {
		ids = strings.Split(*expID, ",")
		for _, id := range ids {
			if reg[id] == nil {
				fatal(fmt.Errorf("unknown experiment %q (use -list)", id))
			}
		}
	}

	if *jsonOut != "" {
		g, err := soleGate(ids)
		if err != nil {
			fatal(err)
		}
		t0 := time.Now()
		if err := runGated(g, o, *jsonOut); err != nil {
			fatal(fmt.Errorf("%s: %w", g.ID(), err))
		}
		fmt.Printf("[%s completed in %s]\n\n", g.ID(), time.Since(t0).Round(time.Millisecond))
		return
	}

	for _, id := range ids {
		t0 := time.Now()
		tables, err := reg[id](o)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", id, err))
		}
		for _, t := range tables {
			t.Render(os.Stdout)
		}
		if err := exp.Dump(o, tables); err != nil {
			fatal(fmt.Errorf("%s: dump: %w", id, err))
		}
		fmt.Printf("[%s completed in %s]\n\n", id, time.Since(t0).Round(time.Millisecond))
	}
}

// soleGate returns the gate -json applies to: ids must select exactly one
// experiment and it must be gated.
func soleGate(ids []string) (exp.Gate, error) {
	var gated []string
	for _, g := range exp.Gates() {
		if len(ids) == 1 && g.ID() == ids[0] {
			return g, nil
		}
		gated = append(gated, g.ID())
	}
	return nil, fmt.Errorf("-json takes exactly one gated experiment: -exp %s", strings.Join(gated, "|"))
}

// runGated runs a gated experiment once, instrumented, and serves three
// outputs from that one measurement: the rendered table, its CSV dump and
// the JSON report.
func runGated(g exp.Gate, o exp.Options, jsonPath string) error {
	rep, err := g.Run(o)
	if err != nil {
		return err
	}
	table := g.Table(rep)
	table.Render(os.Stdout)
	if err := exp.Dump(o, []*exp.Table{table}); err != nil {
		return fmt.Errorf("dump: %w", err)
	}
	f, err := os.Create(jsonPath)
	if err != nil {
		return err
	}
	if err := rep.Write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", jsonPath)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "impala-bench:", err)
	os.Exit(1)
}
