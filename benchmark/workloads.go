package main

import (
	"fmt"
	"math/rand"

	"impala"
	"impala/internal/automata"
	"impala/internal/workload"
)

// ruleSeed generates every workload's rule set. The rules are part of a
// workload's identity, like a deployed Snort rule file: they stay the same on
// every run so that artifact size, resident memory and the modelled design
// repeat exactly, and -seed varies only the traffic (corpus bytes and where
// the witnesses land).
const ruleSeed = 1

// bodiesPerWorkload is the number of distinct request bodies a workload
// cycles through.
const bodiesPerWorkload = 16

// streamChunk is the upload chunk size of /stream requests and the Feed chunk
// of the replayed sessions.
const streamChunk = 16 << 10

// spec is one named workload: a rule set, a design point, a deployment shape
// and a traffic shape.
type spec struct {
	Name string
	// Why is the one-line reason recorded in BENCHMARK.json.
	Why string
	// Suite and Scale select a workload.Suite generator; Suite "" is the DNA
	// alignment universe below.
	Suite string
	Scale float64
	Cfg   impala.Config
	// Stream posts to /stream in streamChunk uploads instead of /match.
	Stream bool
	// Cluster serves through a frontend over one worker per topology domain.
	Cluster bool
	// BodyBytes is the size of each request body; Spacing is the distance
	// between planted witnesses (0 plants none).
	BodyBytes, Spacing int
	// Engine names the layer that executes the automaton on this workload's
	// serving path — the one its ledger attributes engine time to.
	Engine string
}

// specs lists the benchmark's workloads. Names are fixed; later issues cite
// them.
var specs = []spec{
	{
		Name: "snort_nfa_match", Suite: "Snort", Scale: 0.02,
		Why:       "Snort rules on the bit-parallel NFA, 64 KiB one-shot bodies with sparse hits: sim does nearly all the work, the workload a step-kernel or prefilter PR must move",
		Cfg:       impala.Config{StrideDims: 4},
		BodyBytes: 64 << 10, Spacing: 16 << 10, Engine: "sim",
	},
	{
		Name: "hamming_tier_match", Suite: "Hamming", Scale: 0.03,
		Why:       "Hamming meshes fully on the union DFA, 64 KiB bodies: dfa table walks do the work and the NFA tier is empty, the no-change control for a sim kernel PR",
		Cfg:       impala.Config{StrideDims: 4, Tier: true},
		BodyBytes: 64 << 10, Spacing: 16 << 10, Engine: "dfa",
	},
	{
		Name: "bro_small_match", Suite: "Bro217", Scale: 0.02,
		Why:       "47-state Bro rules, 1 KiB bodies, no hits: server and net/http dominate the request, the control for engine PRs and the workload an observability PR must not slow",
		Cfg:       impala.Config{StrideDims: 4},
		BodyBytes: 1 << 10, Engine: "sim",
	},
	{
		Name: "exact_dense_stream", Suite: "ExactMatch", Scale: 0.02,
		Why:       "ExactMatch over /stream, 256 KiB in 16 KiB chunks with a hit every 64 B: chunked Feed, window dedup and one NDJSON row per hit, where a gain for sparse one-shot traffic can cost",
		Cfg:       impala.Config{StrideDims: 4},
		Stream:    true,
		BodyBytes: 256 << 10, Spacing: 64, Engine: "sim",
	},
	{
		Name: "snort_shard_cluster", Suite: "Snort", Scale: 0.01,
		Why:       "Snort rules tiered into 4 shards on a 2-domain topology behind a frontend and two workers: shard, topo, artifact and fan-out/merge, where the slower worker sets the request time",
		Cfg:       impala.Config{StrideDims: 4, Tier: true, Shards: 4},
		Cluster:   true,
		BodyBytes: 16 << 10, Spacing: 4 << 10, Engine: "shard",
	},
	{
		Name:      "dna_scored_match",
		Why:       "8 DNA 12-mers as scored edit-distance meshes, 16 KiB bodies of planted reads: score does nearly all the work, the workload the scoring-as-a-lane direction must move",
		Cfg:       impala.Config{StrideDims: 4},
		BodyBytes: 16 << 10, Engine: "score",
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

// The DNA universe is scorespeed's "DNA-align": random 12-mers over ACGT as
// edit-distance meshes with distance 2 and the default alignment costs. The
// threshold admits perfect and single-edit reads: the cheapest single edit
// is a deletion, (L-1) matches plus one gap.
const (
	dnaAlphabet = "ACGT"
	dnaPatterns = 8
	dnaLength   = 12
	dnaDist     = 2
)

var dnaThreshold = float64(dnaLength-1)*workload.DefaultAlignCosts.Match + workload.DefaultAlignCosts.Gap

// source is a workload's rule set before compilation: the 8-bit stride-1
// automaton the reference interpreters run on, plus the weight table and
// patterns of the scored workload.
type source struct {
	NFA     *automata.NFA
	Weights *automata.Weights
	Pats    [][]byte
}

func (s spec) source() (*source, error) {
	if s.Suite == "" {
		pats := workload.RandomPatterns(rand.New(rand.NewSource(ruleSeed)), dnaPatterns, dnaLength, dnaAlphabet)
		n, w, err := workload.ScoredLevenshtein(pats, dnaDist, workload.DefaultAlignCosts, dnaThreshold)
		if err != nil {
			return nil, err
		}
		return &source{NFA: n, Weights: w, Pats: pats}, nil
	}
	b, ok := workload.Get(s.Suite)
	if !ok {
		return nil, fmt.Errorf("unknown suite benchmark %q", s.Suite)
	}
	n, err := b.Generate(s.Scale, ruleSeed)
	if err != nil {
		return nil, err
	}
	return &source{NFA: n}, nil
}

// config is the design point the source compiles at: the spec's, with the
// scored workload's weight table attached.
func (s spec) config(src *source) impala.Config {
	cfg := s.Cfg
	cfg.Seed = ruleSeed
	cfg.Score = src.Weights
	return cfg
}
