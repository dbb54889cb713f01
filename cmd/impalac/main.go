// impalac is the offline compiler: it reads patterns (one regex per line)
// or an automaton JSON file, runs the V-TeSS pipeline at the chosen design
// point, places the result onto G4 switch units, and reports the
// transformation statistics and hardware model. Optionally it writes the
// transformed automaton as JSON for impala-sim.
//
// Usage:
//
//	impalac -rules rules.txt [-stride 4] [-ca] [-o out.json] [-seed 1]
//	impalac -rules rules.txt -o machine.impala   # sealed artifact for impala-serve / impala-sim -load
//	impalac -rules rules.txt -shards 4 -topo cluster.json -o machine.impala   # + cluster placement
//	impalac -score lev -patterns ACGTACGT,TTGACCAT -shards 2 -topo cluster.json -o align.impala   # scored, placed
//	impalac -rules rules.txt -trace trace.json   # Chrome trace of the pipeline
//	impalac -nfa automaton.json -stride 2
//	echo 'GET /|POST /' | impalac -patterns 'GET /,POST /'
//
// A -o path ending in .impala writes the versioned binary artifact
// (automaton + placement + compile provenance, checksummed); any other
// suffix writes the transformed automaton as JSON.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"impala/internal/anml"
	"impala/internal/arch"
	"impala/internal/artifact"
	"impala/internal/automata"
	"impala/internal/backend"
	"impala/internal/core"
	"impala/internal/dfa"
	"impala/internal/obs"
	"impala/internal/place"
	"impala/internal/regexc"
	"impala/internal/topo"
	"impala/internal/workload"
)

func main() {
	var (
		rulesFile = flag.String("rules", "", "file with one regex per line (lines starting with # ignored)")
		nfaFile   = flag.String("nfa", "", "automaton JSON file (8-bit stride-1)")
		anmlFile  = flag.String("anml", "", "ANML XML automaton file")
		patterns  = flag.String("patterns", "", "comma-separated regex patterns (alternative to -rules)")
		stride    = flag.Int("stride", 4, "sub-symbols per cycle (4-bit: 1/2/4/8; CA mode: 1/2)")
		caMode    = flag.Bool("ca", false, "target the Cache-Automaton 8-bit design point")
		out       = flag.String("o", "", "write the compiled output here (.impala = sealed binary artifact, else automaton JSON)")
		bitFile   = flag.String("bitstream", "", "write the full device configuration (bitstream) here")
		seed      = flag.Int64("seed", 1, "placement search seed")
		workers   = flag.Int("j", 0, "compile/placement worker pool size (0 = GOMAXPROCS); output is identical for any value")
		compare   = flag.Bool("compare", false, "compile at every design point and print a comparison table")
		traceOut  = flag.String("trace", "", "write a Chrome trace of the compile + placement pipeline here (open in chrome://tracing or Perfetto)")
		tier      = flag.Bool("tier", false, "run the tier-selection stage: determinize components within budget into a DFA fast path and seal the plan into the artifact")
		tierCap   = flag.Int("tier-budget", 0, "per-component determinization budget in DFA states for -tier (0 = default)")
		shards    = flag.Int("shards", 1, "partition components into this many shard automata (with -tier the DFA budgets apply per shard); the plan is sealed into the artifact")
		topoSpec  = flag.String("topo", "", "cluster topology (JSON file, inline JSON, or name[:cap[:bw]],... compact spec): place shards onto domains and seal the placement (requires -shards > 1)")
		bkName    = flag.String("backend", backend.DefaultName, "compile target (see -backend list)")

		scoreMode = flag.String("score", "", `build a weighted edit-distance mesh instead of compiling regexes: "lev" (Levenshtein) or "ham" (Hamming). -patterns/-rules entries are then literal byte strings; the transformed weight table is sealed into the artifact (SCOR) for scored serving`)
		scoreDist = flag.Int("score-d", 2, "with -score: per-pattern error budget")
		scoreCost = flag.String("score-costs", "1,-1,-2", "with -score: match,mismatch,gap costs")
		scoreThr  = flag.Float64("score-threshold", 0, "with -score: report threshold (hits scoring below it are suppressed on the scored paths)")
	)
	flag.Parse()

	if *bkName == "list" {
		for _, name := range backend.Names() {
			bk, _ := backend.Get(name)
			b, s := bk.DefaultGeometry()
			fmt.Printf("%-8s v%d  default %d-bit x%d  %s\n", name, bk.Version(), b, s, bk.Description())
		}
		return
	}
	bk, err := backend.Get(*bkName)
	if err != nil {
		fatal(err)
	}

	// Scored mode replaces the regex front end with a weighted mesh builder;
	// the mesh's weight table rides through the pipeline and the artifact.
	var weights *automata.Weights
	var nfa *automata.NFA
	if *scoreMode != "" {
		if *nfaFile != "" || *anmlFile != "" || *compare {
			fatal(fmt.Errorf("-score builds its own automaton; use -patterns or -rules with literal strings"))
		}
		nfa, weights, err = buildScoredInput(*scoreMode, *rulesFile, *patterns, *scoreDist, *scoreCost, *scoreThr)
		if err != nil {
			fatal(err)
		}
	} else {
		nfa, err = loadInput(*rulesFile, *nfaFile, *anmlFile, *patterns)
		if err != nil {
			fatal(err)
		}
	}
	if *compare {
		compareDesigns(nfa)
		return
	}

	// Explicit -stride/-ca override the backend's native design point.
	bits, strideDims := bk.DefaultGeometry()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["ca"] || set["stride"] || bk.Name() == backend.DefaultName {
		bits = 4
		if *caMode {
			bits = 8
		}
		strideDims = *stride
	}
	var tr *obs.Trace
	if *traceOut != "" {
		tr = obs.NewTrace()
	}
	cfg := core.Config{TargetBits: bits, StrideDims: strideDims, Workers: *workers, Trace: tr, Backend: bk.Name()}
	if *tier {
		cfg.Tier = &dfa.TierOptions{CCMaxStates: *tierCap}
	}
	cfg.Shards = *shards
	cfg.Weights = weights
	res, err := core.Compile(nfa, cfg)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("input automaton : %d states, %d transitions\n", nfa.NumStates(), nfa.NumTransitions())
	for _, st := range res.Stages {
		fmt.Printf("stage %-16s: %6d states, %7d transitions  (wall %s, cpu %s)\n",
			st.Name, st.States, st.Transitions, st.Duration.Round(0), st.CPUTime.Round(0))
	}
	fmt.Printf("state overhead  : %.2fx   transition overhead: %.2fx\n",
		res.StateOverhead(nfa), res.TransitionOverhead(nfa))
	fmt.Printf("espresso splits : %d extra states\n", res.SplitStates)
	if res.Tier != nil {
		p := res.Tier.Plan
		fmt.Printf("tier plan       : %d/%d components on the DFA fast path (%d DFA states, %d KiB tables; %d NFA-tier states)\n",
			p.DFACCs(), len(p.CCs), p.DFAStates, p.DFATableBytes/1024, p.NFAStates)
	}
	if res.Shards != nil {
		p := res.Shards.Plan
		tiered, dfaStates := 0, 0
		for _, t := range res.Shards.Tiers {
			if t != nil && t.DFA != nil {
				tiered, dfaStates = tiered+1, dfaStates+t.Plan.DFAStates
			}
		}
		fmt.Printf("shard plan      : %d components over %d shards (%d..%d states/shard; %d shard(s) carry a DFA fast path, %d DFA states total)\n",
			len(p.CCShard), p.Shards, p.MinStates(), p.MaxStates(), tiered, dfaStates)
	}
	if res.Weights != nil {
		fmt.Printf("score table     : %d weighted edges, threshold %g (%d state(s) with mixed in-edge weights)\n",
			res.Weights.NumEdges(), res.Weights.Threshold, res.Weights.MixedStates(res.NFA))
	}

	// Cluster placement: map the shard plan onto the named topology domains
	// and seal the assignment so workers can host their domain's subset.
	var topoSealed *topo.Sealed
	if *topoSpec != "" {
		if res.Shards == nil || res.Shards.Plan.Shards < 2 {
			fatal(fmt.Errorf("-topo requires -shards > 1"))
		}
		t, err := topo.LoadSpec(*topoSpec)
		if err != nil {
			fatal(err)
		}
		mw, err := topo.MergeWeights(res.NFA, res.Shards.Plan)
		if err != nil {
			fatal(err)
		}
		tp, err := topo.Place(res.Shards.Plan, mw, t, topo.Options{Seed: *seed, Workers: *workers})
		if err != nil {
			fatal(err)
		}
		names := t.Names()
		domainShards := make([]int, len(names))
		for _, d := range tp.ShardDomain {
			domainShards[d]++
		}
		parts := make([]string, len(names))
		for i, name := range names {
			parts[i] = fmt.Sprintf("%s=%d shard(s)/%d states", name, domainShards[i], tp.DomainStates[i])
		}
		fmt.Printf("topology        : %d domains [%s], makespan %.1f, cut cost %.1f\n",
			len(names), strings.Join(parts, ", "), tp.Makespan, tp.CutCost)
		if tp.Overflow > 0 {
			fmt.Printf("topology        : WARNING %d states over domain capacity\n", int(tp.Overflow))
		}
		topoSealed = &topo.Sealed{Topology: t, ShardDomain: tp.ShardDomain}
	}
	fmt.Printf("compile time    : %s  (espresso cover cache: %d hits / %d misses, %.0f%% hit rate)\n",
		res.CompileTime, res.CacheHits, res.CacheMisses, res.CacheHitRate()*100)

	pl, err := bk.Place(res.NFA, place.Options{Seed: *seed, Workers: *workers, Trace: tr})
	if err != nil {
		fatal(err)
	}
	unitLabel := "G4 units"
	if bk.Name() != backend.DefaultName {
		unitLabel = "match banks"
	}
	fmt.Printf("placement       : %d %s, %.1f states/group, %d uncovered, GA used %dx\n",
		len(pl.G4s), unitLabel, pl.AvgStatesPerG4(), pl.TotalUncovered, pl.GAInvocations)
	if !pl.Valid() {
		fatal(fmt.Errorf("placement failed: %d transitions unrouted", pl.TotalUncovered))
	}

	// The capsule machine and its bitstream exist only for the Impala
	// target; other backends report their analytical model instead.
	var m *arch.Machine
	md := bk.Model(res.NFA)
	fmt.Printf("design point    : %s, %.2f GHz, %.1f Gbps\n", md.Design, md.FreqGHz, md.ThroughputGbps)
	fmt.Printf("capacity        : %d rows (%d unit(s) of %d)\n", md.Rows, md.Units, md.UnitCapacity)
	fmt.Printf("area            : %.3f mm² (match %.3f + interconnect %.3f), %.2f Gbps/mm², %.2f pJ/byte\n",
		md.TotalMM2, md.MatchMM2, md.RouteMM2, md.ThroughputPerMM2, md.PJPerByte)
	if bk.Name() == backend.DefaultName {
		m, err = arch.Build(res.NFA, pl)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("bitstream       : %d bytes\n", m.BitstreamBytes())
	} else if *bitFile != "" {
		fatal(fmt.Errorf("-bitstream is only available for the %s backend", backend.DefaultName))
	}

	if *out != "" {
		if strings.HasSuffix(*out, ".impala") {
			a := artifact.FromResult(res, pl, nfa, artifact.Meta{
				CAMode:      *caMode,
				Seed:        *seed,
				CreatedUnix: time.Now().Unix(),
			})
			a.SetTopo(topoSealed)
			payload, err := bk.SealSection(res.NFA, pl)
			if err != nil {
				fatal(err)
			}
			a.SetBackend(bk.Name(), payload)
			if err := a.WriteFile(*out); err != nil {
				fatal(err)
			}
			info, err := artifact.StatFile(*out)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s (artifact v%d, %d bytes)\n", *out, info.Version, info.SizeBytes)
		} else {
			data, err := json.Marshal(res.NFA)
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*out, data, 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", *out)
		}
	}
	if *bitFile != "" {
		f, err := os.Create(*bitFile)
		if err != nil {
			fatal(err)
		}
		if err := m.WriteConfig(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *bitFile)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := tr.WriteChrome(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d spans)\n", *traceOut, tr.Len())
	}
}

// compareDesigns compiles the automaton at every supported design point and
// prints the resulting shape, throughput and area side by side.
func compareDesigns(nfa *automata.NFA) {
	type point struct {
		label string
		cfg   core.Config
		d     arch.Design
	}
	points := []point{
		{"CA 8-bit", core.Config{TargetBits: 8, StrideDims: 1}, arch.Design{Arch: arch.CacheAutomaton, Bits: 8, Stride: 1}},
		{"CA 16-bit", core.Config{TargetBits: 8, StrideDims: 2}, arch.Design{Arch: arch.CacheAutomaton, Bits: 8, Stride: 2}},
		{"Impala 4-bit", core.Config{TargetBits: 4, StrideDims: 1}, arch.Design{Arch: arch.Impala, Bits: 4, Stride: 1}},
		{"Impala 8-bit", core.Config{TargetBits: 4, StrideDims: 2}, arch.Design{Arch: arch.Impala, Bits: 4, Stride: 2}},
		{"Impala 16-bit", core.Config{TargetBits: 4, StrideDims: 4}, arch.Design{Arch: arch.Impala, Bits: 4, Stride: 4}},
		{"Impala 32-bit", core.Config{TargetBits: 4, StrideDims: 8}, arch.Design{Arch: arch.Impala, Bits: 4, Stride: 8}},
	}
	fmt.Printf("%-14s %8s %8s %9s %10s %10s %12s\n",
		"design", "states", "overhead", "Gbps", "area mm2", "Gbps/mm2", "compile")
	for _, pt := range points {
		res, err := core.Compile(nfa, pt.cfg)
		if err != nil {
			fmt.Printf("%-14s error: %v\n", pt.label, err)
			continue
		}
		area := arch.AreaBreakdown(pt.d, res.NFA.NumStates())
		fmt.Printf("%-14s %8d %8.2f %9.1f %10.3f %10.2f %12s\n",
			pt.label, res.NFA.NumStates(), res.StateOverhead(nfa),
			pt.d.ThroughputGbps(), area.TotalMM2(),
			arch.ThroughputPerArea(pt.d, res.NFA.NumStates()),
			res.CompileTime.Round(0))
	}
}

// buildScoredInput constructs the weighted edit-distance mesh for -score:
// literal patterns from -patterns/-rules, a cost table, and the report
// threshold sealed alongside the weights.
func buildScoredInput(mode, rulesFile, patterns string, d int, costSpec string, threshold float64) (*automata.NFA, *automata.Weights, error) {
	var pats [][]byte
	switch {
	case patterns != "":
		for _, p := range strings.Split(patterns, ",") {
			pats = append(pats, []byte(p))
		}
	case rulesFile != "":
		f, err := os.Open(rulesFile)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			pats = append(pats, []byte(line))
		}
		if err := sc.Err(); err != nil {
			return nil, nil, err
		}
	default:
		return nil, nil, fmt.Errorf("-score requires literal patterns via -patterns or -rules")
	}
	parts := strings.Split(costSpec, ",")
	if len(parts) != 3 {
		return nil, nil, fmt.Errorf("-score-costs wants match,mismatch,gap, got %q", costSpec)
	}
	var c workload.Costs
	for i, dst := range []*float64{&c.Match, &c.Mismatch, &c.Gap} {
		v, err := strconv.ParseFloat(strings.TrimSpace(parts[i]), 64)
		if err != nil {
			return nil, nil, fmt.Errorf("-score-costs %q: %v", costSpec, err)
		}
		*dst = v
	}
	switch mode {
	case "lev":
		return workload.ScoredLevenshtein(pats, d, c, threshold)
	case "ham":
		return workload.ScoredHamming(pats, d, c, threshold)
	default:
		return nil, nil, fmt.Errorf("unknown -score mode %q (want lev or ham)", mode)
	}
}

func loadInput(rulesFile, nfaFile, anmlFile, patterns string) (*automata.NFA, error) {
	switch {
	case anmlFile != "":
		f, err := os.Open(anmlFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return anml.Parse(f)
	case nfaFile != "":
		data, err := os.ReadFile(nfaFile)
		if err != nil {
			return nil, err
		}
		var n automata.NFA
		if err := json.Unmarshal(data, &n); err != nil {
			return nil, err
		}
		return &n, nil
	case rulesFile != "":
		f, err := os.Open(rulesFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		var rules []regexc.Rule
		sc := bufio.NewScanner(f)
		code := 0
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			rules = append(rules, regexc.Rule{Pattern: line, Code: code})
			code++
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return regexc.Compile(rules)
	case patterns != "":
		var rules []regexc.Rule
		for i, p := range strings.Split(patterns, ",") {
			rules = append(rules, regexc.Rule{Pattern: p, Code: i})
		}
		return regexc.Compile(rules)
	default:
		return nil, fmt.Errorf("impalac: one of -rules, -nfa, -anml, -patterns is required")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "impalac:", err)
	os.Exit(1)
}
