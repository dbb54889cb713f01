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
// -exp plans is the plan table: one row per benchmark × design point of
// plan quantities — compiled shape, tier, shard and topology plans, the
// backends' capacity/area/energy model, report counts of one in-process run
// — and no timing. With -json FILE it also writes the table as JSON; that is
// how the committed BENCH_plans.json is written (make bench), and
// internal/exp's TestPlans recomputes the table and fails on any row or
// column that differs from it. DESIGN.md ("The plan table") says what each
// design point's rows hold.
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
		jsonOut  = flag.String("json", "", "with -exp plans, also write the plan table as JSON to this file")
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
		if *expID != "plans" {
			fatal(fmt.Errorf("-json writes the plan table: use it with -exp plans"))
		}
		t0 := time.Now()
		if err := writePlans(o, *jsonOut); err != nil {
			fatal(fmt.Errorf("plans: %w", err))
		}
		fmt.Printf("[plans completed in %s]\n\n", time.Since(t0).Round(time.Millisecond))
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

// writePlans computes the plan table once and serves three outputs from
// it: the rendered tables, their CSV dump and the JSON document.
func writePlans(o exp.Options, path string) error {
	p, err := exp.Plans(o)
	if err != nil {
		return err
	}
	for _, t := range p.Tables() {
		t.Render(os.Stdout)
	}
	if err := exp.Dump(o, p.Tables()); err != nil {
		return fmt.Errorf("dump: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := p.Write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "impala-bench:", err)
	os.Exit(1)
}
