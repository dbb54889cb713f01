// Command benchmark is this repository's benchmark: six named workloads
// driven through the real serving path (generate → CompileAutomaton → seal →
// load → serve on loopback → /match or /stream), every reply checked against
// a reference interpreter, eight end-to-end metrics, and a traced run that
// attributes each request's time to the repo's modules. README.md explains
// the choices; BENCHMARK.json declares it to the driver.
//
//	benchmark [-seed N] [-seconds S] [-workloads a,b] [-trace 0|1] [-out FILE] [-tracedir DIR]
//	benchmark -workload NAME -seed N -seconds S -trace 0|1
//	benchmark -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// host records the facts a result depends on; -compare refuses two reports
// whose seeds, windows or workload sets differ.
type host struct {
	NProc         int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	Go            string  `json:"go"`
	Seed          int64   `json:"seed"`
	WindowSeconds float64 `json:"window_seconds"`
	WarmupSeconds float64 `json:"warmup_seconds"`
	Clients       int     `json:"clients"`
}

// report is the results file -out writes and -compare reads.
type report struct {
	Host    host      `json:"host"`
	Results []*result `json:"results"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	one := fs.String("workload", "", "run this one workload and end with the driver's result line")
	many := fs.String("workloads", "", "comma-separated workloads to run (default: all)")
	seed := fs.Int64("seed", 1, "seed of the corpus and the witness planting")
	seconds := fs.Float64("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", -1, "0: end-to-end run only, 1: traced per-layer run only (default: both)")
	out := fs.String("out", "", "write the results as JSON to this file")
	traceDir := fs.String("tracedir", "benchmark/out", "directory for the traced runs' <workload>.trace.json")
	cmp := fs.Bool("compare", false, "compare two results files: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two results files")
			return 2
		}
		bad, err := compareFiles(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		if bad > 0 {
			return 1
		}
		return 0
	}
	if fs.NArg() > 0 || *seconds <= 0 || *trace < -1 || *trace > 1 {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -help")
		return 2
	}

	names := *many
	if *one != "" {
		names = *one
	}
	var todo []spec
	for _, name := range strings.Split(names, ",") {
		if name == "" {
			continue
		}
		s, ok := specByName(name)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", name)
			return 2
		}
		todo = append(todo, s)
	}
	if len(todo) == 0 {
		todo = specs
	}

	o := defaultOptions(*seed, *seconds)
	o.TraceDir = *traceDir
	rep := report{Host: host{
		NProc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Go:            runtime.Version(),
		Seed:          o.Seed,
		WindowSeconds: o.Window.Seconds(),
		WarmupSeconds: o.Warmup.Seconds(),
		Clients:       clients,
	}}
	for _, s := range todo {
		for phase, runPhase := range []func(spec, options) (*result, error){runTimed, runTraced} {
			if *trace >= 0 && *trace != phase {
				continue
			}
			res, err := runPhase(s, o)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", s.Name, err)
				return 1
			}
			printResult(stdout, res, rep.Host)
			rep.Results = append(rep.Results, res)
		}
	}
	if *out != "" {
		if err := writeReport(*out, &rep); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if *one != "" {
		if err := printDriverLine(stdout, rep.Results); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	for _, res := range rep.Results {
		if res.Failed > 0 {
			fmt.Fprintf(stderr, "benchmark: %s: %d of %d requests failed; first: %s\n", res.Workload, res.Failed, res.Attempted, res.FirstError)
			return 1
		}
	}
	return 0
}

// defsOf returns the metric table a result was measured against.
func defsOf(res *result) []metricDef {
	if res.Traced {
		return perLayer
	}
	return endToEnd
}

// printResult prints one workload's block: every metric by name, with its
// unit and the number of samples behind it.
func printResult(w io.Writer, res *result, h host) {
	kind := "end-to-end"
	if res.Traced {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s  %s  seed %d  window %gs  attempted %d  failed %d\n",
		res.Workload, kind, h.Seed, h.WindowSeconds, res.Attempted, res.Failed)
	line := func(name string, v value) {
		samples := ""
		if v.Samples > 0 {
			samples = fmt.Sprintf("  (n=%d)", v.Samples)
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-9s%s\n", name, v.Value, v.Unit, samples)
	}
	for _, d := range defsOf(res) {
		line(d.Name, res.Metrics[d.Name])
	}
	for _, name := range []string{"req_p50_ms", "req_tail_ms", "scan_mb_per_s"} {
		if v, ok := res.Info[name]; ok {
			line("(not gated) client."+name, v)
		}
	}
	for _, l := range res.Ledger {
		fmt.Fprintf(w, "  ledger %-27s %14.6g ns/B       %5.1f%% of the client span\n", l.Layer, l.SelfNsPerByte, 100*l.Share)
	}
}

// printDriverLine ends the output with the one JSON object the driver reads.
func printDriverLine(w io.Writer, results []*result) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Metrics: map[string]metric{}}
	for _, res := range results {
		line.Attempted += res.Attempted
		line.Failed += res.Failed
		for name, v := range res.Metrics {
			line.Metrics[name] = metric{v.Value, v.Unit}
		}
	}
	line.Correct = line.Failed == 0
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func writeReport(path string, rep *report) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
