// impala-sim runs an input stream through a compiled automaton (from
// impalac -o, or compiled on the fly from -patterns) and prints the match
// reports and activity statistics.
//
// Usage:
//
//	impala-sim -nfa out.json -in payload.bin
//	impala-sim -load machine.impala -in payload.bin   # sealed artifact, no compile
//	impala-sim -load machine.impala -v                # print the artifact header
//	impala-sim -patterns 'GET /,POST /' -stride 4 -in payload.bin
//	impala-sim -patterns needle -text 'haystack needle'
//	impala-sim -patterns needle -in payload.bin -chunk 1460   # streaming path
//	impala-sim -patterns needle -in payload.bin -chunk 1460 -ops :8080   # + live /metrics
//	impala-sim -patterns needle -in payload.bin -tier         # hybrid DFA fast-path tier
//	impala-sim -load machine.impala -in payload.bin -tier     # use the artifact's sealed plan
//	impala-sim -load sharded.impala -in payload.bin           # a sealed shard plan always executes
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"impala"
	"impala/internal/arch"
	"impala/internal/artifact"
	"impala/internal/automata"
	"impala/internal/bitvec"
	"impala/internal/core"
	"impala/internal/dfa"
	"impala/internal/obs"
	"impala/internal/regexc"
	"impala/internal/score"
	"impala/internal/shard"
	"impala/internal/sim"
)

func main() {
	var (
		nfaFile  = flag.String("nfa", "", "transformed automaton JSON (from impalac -o)")
		loadFile = flag.String("load", "", "sealed compiled artifact (from impalac -o machine.impala): skip compilation entirely")
		verbose  = flag.Bool("v", false, "with -load: print the artifact header (version, design point, shape, compile stages)")
		bitFile  = flag.String("bitstream", "", "device configuration (from impalac -bitstream): run at the capsule level")
		patterns = flag.String("patterns", "", "comma-separated regexes to compile on the fly")
		stride   = flag.Int("stride", 4, "stride for on-the-fly compilation")
		caMode   = flag.Bool("ca", false, "CA design point for on-the-fly compilation")
		inFile   = flag.String("in", "", "input stream file")
		text     = flag.String("text", "", "inline input text (alternative to -in)")
		quiet    = flag.Bool("q", false, "suppress per-match lines, print summary only")
		trace    = flag.Bool("trace", false, "print per-cycle active-state traces (graph simulator only)")
		engine   = flag.String("engine", "compiled", "graph simulator engine: compiled (bit-parallel) or scalar (reference)")
		chunk    = flag.Int("chunk", 0, "drive the streaming path, feeding the input in chunks of N bytes (0 = batch)")
		ops      = flag.String("ops", "", "serve the ops endpoint (/metrics JSON, /debug/vars, /debug/pprof) on this address and keep serving after the run")
		tier     = flag.Bool("tier", false, "execute on the hybrid tier plan: DFA fast path for components that determinize within budget, bit-parallel NFA for the rest (uses the artifact's sealed plan with -load)")
	)
	flag.Parse()

	if *verbose {
		if *loadFile == "" {
			fatal(fmt.Errorf("-v requires -load"))
		}
		if err := printArtifactInfo(os.Stdout, *loadFile); err != nil {
			fatal(err)
		}
		if *inFile == "" && *text == "" {
			return
		}
	}

	// The ops endpoint turns on the live stream counters and keeps the
	// process up after the run so the final state stays scrapeable.
	holdOps := func() {}
	if *ops != "" {
		reg := obs.NewRegistry()
		sim.EnableMetrics(reg)
		arch.EnableMetrics(reg)
		dfa.EnableMetrics(reg)
		shard.EnableMetrics(reg)
		score.EnableMetrics(reg)
		_, url, err := obs.Serve(*ops, reg)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "ops: serving /metrics and /debug/pprof on %s\n", url)
		holdOps = func() {
			fmt.Fprintf(os.Stderr, "ops: run complete; serving on %s until interrupted\n", url)
			select {}
		}
	}
	defer holdOps()

	var input []byte
	var err error
	switch {
	case *inFile != "":
		input, err = os.ReadFile(*inFile)
		if err != nil {
			fatal(err)
		}
	case *text != "":
		input = []byte(*text)
	default:
		fatal(fmt.Errorf("one of -in, -text is required"))
	}

	if *bitFile != "" {
		f, err := os.Open(*bitFile)
		if err != nil {
			fatal(err)
		}
		m, err := arch.ReadConfig(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		var reports []sim.Report
		var stats arch.ActivityStats
		if *chunk > 0 {
			s := m.NewSession(func(r sim.Report) { reports = append(reports, r) })
			feedChunks(s.Feed, input, *chunk)
			s.Flush()
			sim.SortReports(reports)
			stats = s.Activity()
		} else {
			reports, stats = m.Run(input)
		}
		if !*quiet {
			for _, r := range reports {
				fmt.Printf("match: pattern %d at byte %d\n", r.Code, r.BitPos/8)
			}
		}
		fmt.Printf("input: %d bytes, %d cycles (%d bits/cycle, capsule level)\n",
			len(input), stats.Cycles, m.Bits*m.Stride)
		fmt.Printf("reports: %d   local switch activations: %d   cross-block signals: %d\n",
			len(reports), stats.LocalSwitchActivations, stats.CrossBlockSignals)
		return
	}

	a, err := loadAutomaton(*loadFile, *nfaFile, *patterns, *stride, *caMode)
	if err != nil {
		fatal(err)
	}
	core, err := pickCore(os.Stderr, a, *tier, *trace, *engine)
	if err != nil {
		fatal(err)
	}
	// Batch and streaming share the session core; -chunk only changes how
	// the input reaches Feed.
	if *trace {
		reports, stats := sim.RunBatch(core, input, *chunk, &cycleTracer{})
		fmt.Printf("input: %d bytes, %d cycles, %d reports\n", len(input), stats.Cycles, len(reports))
		return
	}
	reports, stats := sim.RunBatch(core, input, *chunk, nil)
	printRun(os.Stdout, a, len(input), *chunk, *quiet, reports, stats)
}

// pickCore picks the artifact's execution form, once, and returns a core of
// it, announcing the plan it runs on log: a scored artifact (SCOR section)
// runs the scored kernel; a sharded one (SHRD section) always executes its
// sealed partition, per-shard DFA tables included (-tier has nothing to add
// to it); tier runs the hybrid plan; otherwise engine names the graph
// simulator. A scored kernel, a shard plan and a tier plan are lanes beside
// or in lockstep with a kernel, none holding the whole automaton's state
// vector a -trace line prints, so they refuse trace and engine (the scored
// one tier too) rather than ignore them.
func pickCore(log io.Writer, a *artifact.Artifact, tier, trace bool, engine string) (sim.Core, error) {
	nfa := a.NFA
	graphOnly := trace || engine != "compiled"
	switch {
	case a.Score != nil:
		if tier || graphOnly {
			return nil, fmt.Errorf("scored artifacts run on the scored engine only (no -tier, -trace, -engine)")
		}
		c, err := score.Compile(nfa, a.Score)
		if err != nil {
			return nil, err
		}
		return c.NewEngine(), nil
	case a.Shards != nil:
		if graphOnly {
			return nil, fmt.Errorf("sharded artifacts run on their shard plan only (no -trace, -engine)")
		}
		sharded, err := shard.Unseal(nfa, a.Shards)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "shard plan: %d shards, %d carrying a DFA fast path (%d DFA states)\n",
			sharded.Shards(), sharded.TieredShards(), sharded.DFAStates())
		return sharded.NewCore(), nil
	case tier:
		if graphOnly {
			return nil, fmt.Errorf("-tier runs the tier plan only (no -trace, -engine)")
		}
		var tiered *dfa.Tiered
		var err error
		if a.Tier != nil {
			tiered, err = dfa.Unseal(nfa, a.Tier)
		} else {
			tiered, err = dfa.BuildTiered(nfa, dfa.TierOptions{})
		}
		if err != nil {
			return nil, err
		}
		p := tiered.Plan()
		fmt.Fprintf(log, "tier plan: %d/%d components on the DFA fast path (%d DFA states)\n",
			p.DFACCs(), len(p.CCs), p.DFAStates)
		return tiered.NewCore(), nil
	}
	switch engine {
	case "scalar":
		return sim.NewEngine(nfa)
	case "compiled":
		c, err := sim.Compile(nfa)
		if err != nil {
			return nil, err
		}
		return c.NewEngine(), nil
	}
	return nil, fmt.Errorf("unknown -engine %q (want compiled or scalar)", engine)
}

// printRun writes a run over inputLen bytes to w: a match line per report
// unless quiet — with its score on a scored artifact — then the summary.
func printRun(w io.Writer, a *artifact.Artifact, inputLen, chunk int, quiet bool, reports []sim.Report, stats sim.Stats) {
	if !quiet {
		for _, r := range reports {
			fmt.Fprintf(w, "match: pattern %d at byte %d", r.Code, r.BitPos/8)
			if a.Score != nil {
				fmt.Fprintf(w, " score %g", r.Score)
			}
			fmt.Fprintln(w)
		}
	}
	geometry := fmt.Sprintf("%d bits/cycle", a.NFA.BitsPerCycle())
	if a.Score != nil {
		geometry += fmt.Sprintf(", scored at threshold %g", a.Score.Threshold)
	}
	if chunk > 0 {
		fmt.Fprintf(w, "input: %d bytes streamed in %d-byte chunks, %d cycles (%s)\n", inputLen, chunk, stats.Cycles, geometry)
	} else {
		fmt.Fprintf(w, "input: %d bytes, %d cycles (%s)\n", inputLen, stats.Cycles, geometry)
	}
	fmt.Fprintf(w, "reports: %d   active/cycle avg: %.2f   peak active: %d\n",
		stats.Reports, stats.ActivePerCycleAvg, stats.PeakActive)
}

// feedChunks drives feed over input in chunks of at most size bytes.
func feedChunks(feed func([]byte), input []byte, size int) {
	for off := 0; off < len(input); off += size {
		end := off + size
		if end > len(input) {
			end = len(input)
		}
		feed(input[off:end])
	}
}

// cycleTracer prints a compact per-cycle activity line.
type cycleTracer struct{}

func (cycleTracer) OnCycle(cycle int, enabled, active bitvec.Words) {
	ids := make([]int, 0, 8)
	active.ForEach(func(i int) {
		if len(ids) < 8 {
			ids = append(ids, i)
		}
	})
	fmt.Printf("cycle %5d: enabled %4d active %4d %v\n", cycle, enabled.Count(), active.Count(), ids)
}

// printArtifactInfo writes the artifact header to w, with a line for each
// plan it carries, read off the plan itself.
func printArtifactInfo(w io.Writer, path string) error {
	a, err := artifact.LoadFile(path)
	if err != nil {
		return err
	}
	info := a.Info()
	m := info.Meta
	design := fmt.Sprintf("%d-bit stride-%d", m.Bits, m.Stride)
	if m.CAMode {
		design += " (CA)"
	}
	fmt.Fprintf(w, "artifact        : %s (v%d, %d bytes)\n", path, info.Version, info.SizeBytes)
	fmt.Fprintf(w, "backend         : %s\n", m.BackendName())
	fmt.Fprintf(w, "design point    : %s, placement seed %d\n", design, m.Seed)
	if m.CreatedUnix != 0 {
		fmt.Fprintf(w, "created         : %s\n", time.Unix(m.CreatedUnix, 0).UTC().Format(time.RFC3339))
	}
	fmt.Fprintf(w, "input automaton : %d states, %d transitions\n", m.OriginalStates, m.OriginalTransitions)
	fmt.Fprintf(w, "compiled        : %d states, %d transitions, %d G4 groups\n", m.States, m.Transitions, m.Groups)
	if t := a.Tier; t != nil {
		fmt.Fprintf(w, "tier plan       : %d/%d components on the DFA fast path (%d DFA states)\n",
			t.Plan.DFACCs(), len(t.Plan.CCs), t.Plan.DFAStates)
	}
	if a.Shards != nil {
		fmt.Fprintf(w, "shard plan      : %d shards\n", a.Shards.Plan.Shards)
	}
	if a.Score != nil {
		fmt.Fprintf(w, "score table     : %d weighted edges, threshold %g\n", a.Score.NumEdges(), a.Score.Threshold)
	}
	for _, st := range info.Stages {
		fmt.Fprintf(w, "stage %-16s: %6d states, %7d transitions  (wall %s, cpu %s)\n",
			st.Name, st.States, st.Transitions, st.Duration.Round(0), st.CPUTime.Round(0))
	}
	names := make([]string, 0, len(info.Sections))
	for name := range info.Sections {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "section %s    : %d bytes\n", name, info.Sections[name])
	}
	return nil
}

// loadAutomaton resolves the automaton source as an artifact: a loaded one
// carries whatever plans it was sealed with (tier, shards, weights), the
// other sources only the automaton.
func loadAutomaton(loadFile, nfaFile, patterns string, stride int, caMode bool) (*artifact.Artifact, error) {
	if loadFile != "" {
		a, err := artifact.LoadFile(loadFile)
		if err != nil {
			return nil, err
		}
		// The simulator runs what LoadMachine would serve and nothing else:
		// the default backend (backend.ErrMismatch for another, which would
		// run under the wrong hardware model), a placement that builds, and
		// plans that unseal.
		if _, err := impala.MachineFromArtifact(a); err != nil {
			return nil, err
		}
		return a, nil
	}
	if nfaFile != "" {
		data, err := os.ReadFile(nfaFile)
		if err != nil {
			return nil, err
		}
		var n automata.NFA
		if err := json.Unmarshal(data, &n); err != nil {
			return nil, err
		}
		return &artifact.Artifact{NFA: &n}, nil
	}
	if patterns == "" {
		return nil, fmt.Errorf("one of -nfa, -patterns is required")
	}
	var rules []regexc.Rule
	for i, p := range strings.Split(patterns, ",") {
		rules = append(rules, regexc.Rule{Pattern: p, Code: i})
	}
	n, err := regexc.Compile(rules)
	if err != nil {
		return nil, err
	}
	bits := 4
	if caMode {
		bits = 8
	}
	res, err := core.Compile(n, core.Config{TargetBits: bits, StrideDims: stride})
	if err != nil {
		return nil, err
	}
	return &artifact.Artifact{NFA: res.NFA}, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "impala-sim:", err)
	os.Exit(1)
}
