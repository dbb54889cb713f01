package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Results) == 0 {
		return nil, fmt.Errorf("%s: no results", path)
	}
	return &rep, nil
}

// key names one run of one workload within a report.
func (r *result) key() string {
	if r.Traced {
		return r.Workload + " per-layer"
	}
	return r.Workload + " end-to-end"
}

// verdict classifies B against A for one end-to-end metric. worse is the
// share of A by which B is worse (negative = better). One run per side has no
// spread of its own, so the benchmark's steadiness target stands in for it:
// runs of one commit agree within a third of the bound, so a difference
// inside that third is unchanged, one beyond the bound is a regression (or an
// improvement), and one in between straddles the two and is unresolved —
// run more pairs before calling it either.
func verdict(d metricDef, a, b float64) (worse float64, v string, regressed bool) {
	if a != 0 {
		worse = (b - a) / a
	}
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case d.Exact && a != b:
		return worse, "REGRESSION (must repeat exactly)", true
	case worse > d.Bound:
		return worse, "REGRESSION", true
	case worse < -d.Bound:
		return worse, "improved", false
	case worse > d.Bound/3 || worse < -d.Bound/3:
		return worse, "unresolved", false
	}
	return worse, "unchanged", false
}

// compareFiles prints, per workload and end-to-end metric, B against A with
// the ratio and its base, and returns how many comparisons regressed. Exact
// per-layer counts must be identical, and neither side may hold a failed
// request.
func compareFiles(aPath, bPath string, w io.Writer) (regressions int, err error) {
	a, err := readReport(aPath)
	if err != nil {
		return 0, err
	}
	b, err := readReport(bPath)
	if err != nil {
		return 0, err
	}
	if a.Host.Seed != b.Host.Seed || a.Host.WindowSeconds != b.Host.WindowSeconds || a.Host.WarmupSeconds != b.Host.WarmupSeconds {
		return 0, fmt.Errorf("not comparable: A ran seed %d with %gs windows, B seed %d with %gs",
			a.Host.Seed, a.Host.WindowSeconds, b.Host.Seed, b.Host.WindowSeconds)
	}
	keys := func(rep *report) []string {
		var ks []string
		for _, r := range rep.Results {
			ks = append(ks, r.key())
		}
		return ks
	}
	if !slices.Equal(keys(a), keys(b)) {
		return 0, fmt.Errorf("not comparable: A ran %v, B ran %v", keys(a), keys(b))
	}
	fmt.Fprintf(w, "A = %s (%s, %d procs)\nB = %s (%s, %d procs)\n", aPath, a.Host.Go, a.Host.GOMAXPROCS, bPath, b.Host.Go, b.Host.GOMAXPROCS)
	for i, ra := range a.Results {
		rb := b.Results[i]
		fmt.Fprintf(w, "== %s\n", ra.key())
		if ra.Failed > 0 || rb.Failed > 0 {
			regressions++
			fmt.Fprintf(w, "  failed requests: A %d of %d, B %d of %d  REGRESSION\n", ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
		}
		for _, d := range defsOf(ra) {
			va, vb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
			if ra.Traced {
				// Layer metrics have no bound; only the exact counts are held.
				if d.Exact && va != vb {
					regressions++
					fmt.Fprintf(w, "  %-34s A %.9g  B %.9g  REGRESSION (must repeat exactly)\n", d.Name, va, vb)
				}
				continue
			}
			worse, v, regressed := verdict(d, va, vb)
			if regressed {
				regressions++
			}
			fmt.Fprintf(w, "  %-24s A %12.6g  B %12.6g %-8s B/A %.4f (base A)  %+.1f%% worse, bound %.1f%%  %s\n",
				d.Name, va, vb, d.Unit, ratio(vb, va), 100*worse, 100*d.Bound, v)
		}
	}
	fmt.Fprintf(w, "%d regressions\n", regressions)
	return regressions, nil
}
