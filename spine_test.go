package impala_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"impala"
	"impala/internal/artifact"
	"impala/internal/sim"
	"impala/internal/sim/simtest"
	"impala/internal/topo"
)

// This package's rows of the differential spine (simtest.Spine), on every
// case the facade compiles: the case's 8-bit source at its geometry, 4-bit or
// CA-mode 8-bit. The facade serves one row per distinct (End, Pattern), so
// every form here is a Rows form:
//   - the scalar engine over the 8-bit source;
//   - Match and NewStream of the plain, tiered (at the case's split budget),
//     3-shard and tiered 3-shard machines and of one under random weights and
//     the open threshold, whose MatchScored and NewScoredStream too, and the
//     capsule-level Run and the graph-level Simulate of the plain one;
//   - each of the five saved, loaded and rebuilt by MachineFromArtifact, the
//     tiered 3-shard one placed on two domains;
//   - the machines MachineFromArtifactDomain builds for those domains, merged
//     as the cluster frontend merges them.
//
// Each machine must carry the tier, shard and score summaries its
// configuration calls for (and the tiered ones a DFA on some case); a loaded
// one must keep its Model, geometry, summaries, design point and scores and
// save back the bytes it was loaded from; a scored stream must score each row
// as the one-shot does.
func TestSpine(t *testing.T) {
	dfas := map[string]bool{}
	var last *simtest.Case
	var forms map[string]simtest.Form
	var rows []simtest.Row
	for _, name := range []string{"8-bit source, scalar engine", "facade, plain", "facade, tiered", "facade, 3 shards",
		"facade, 3 shards, tiered", "facade, scored", "facade, scored, binary", "facade, capsule-level Run", "facade, Simulate", "artifact, plain",
		"artifact, tiered", "artifact, 3 shards", "artifact, 3 shards, tiered", "artifact, scored", "artifact, scored, binary", "per-domain machines, merged"} {
		rows = append(rows, simtest.Row{Name: name, Build: func(t testing.TB, c *simtest.Case) (simtest.Form, bool) {
			if c != last {
				last, forms = c, facadeForms(t, c, dfas)
			}
			f, ok := forms[name]
			return f, ok
		}})
	}
	simtest.Spine(t, rows...)
	if !dfas["tiered"] || !dfas["3 shards, tiered"] {
		t.Errorf("no case kept a DFA on the tiered (%t) or the tiered 3-shard (%t) machine", dfas["tiered"], dfas["3 shards, tiered"])
	}
}

// facadeForms builds the case's forms, none when the facade does not compile
// to its geometry; dfas records the configurations that kept a DFA.
func facadeForms(t testing.TB, c *simtest.Case, dfas map[string]bool) map[string]simtest.Form {
	if c.Source == nil || (c.NFA.Bits != 4 && !(c.NFA.Bits == 8 && c.NFA.Stride <= 2)) {
		return nil
	}
	src, err := sim.NewEngine(c.Source)
	if err != nil {
		t.Fatal(err)
	}
	forms := map[string]simtest.Form{"8-bit source, scalar engine": {Run: func(in []byte) ([]sim.Report, sim.Stats) {
		r, _ := src.Run(in, nil)
		return simtest.Fold(r), sim.Stats{}
	}, Rows: true}}
	for _, config := range []string{"plain", "tiered", "3 shards", "3 shards, tiered", "scored"} {
		cfg := impala.Config{StrideDims: c.NFA.Stride, CAMode: c.NFA.Bits == 8}
		switch config {
		case "tiered":
			cfg.Tier, cfg.TierBudget = true, c.SplitBudget(t)
		case "3 shards, tiered":
			cfg.Tier, cfg.TierBudget = true, c.SplitBudget(t)
			fallthrough
		case "3 shards":
			cfg.Shards = 3
		case "scored":
			cfg.Score = simtest.RandomWeights(c.Source, 1)
		}
		m, err := impala.CompileAutomaton(c.Source, cfg)
		if err != nil {
			t.Fatalf("%s, %s: %v", c.Name, config, err)
		}
		ti, si, sc := m.TierInfo(), m.ShardInfo(), m.ScoreInfo()
		if (ti != nil) != (config == "tiered") || (si != nil) != (cfg.Shards == 3) || (si != nil && si.Shards != 3) || (sc != nil) != (cfg.Score != nil) {
			t.Fatalf("%s, %s: tier plan %+v, shard plan %+v, score table %+v", c.Name, config, ti, si, sc)
		}
		dfas[config] = dfas[config] || (ti != nil && ti.DFACCs > 0) || (si != nil && si.TieredShards > 0)

		a := m.Artifact()
		if config == "3 shards, tiered" {
			a.SetTopo(&topo.Sealed{Topology: topo.Topology{Domains: []topo.Domain{{Name: "n0"}, {Name: "n1"}}}, ShardDomain: []int{0, 1, 0}})
		}
		loaded, la := reload(t, c.Name+", "+config, m, a)
		scored := cfg.Score != nil
		forms["facade, "+config], forms["artifact, "+config] = matches(t, c, m, scored), matches(t, c, loaded, scored)
		if scored {
			forms["facade, scored, binary"], forms["artifact, scored, binary"] = matches(t, c, m, false), matches(t, c, loaded, false)
			want, _ := m.MatchScored(c.Input)
			if got, _ := loaded.MatchScored(c.Input); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: the loaded machine scores %v, the saved one %v", c.Name, got, want)
			}
		}
		if config == "plain" {
			forms["facade, capsule-level Run"] = simtest.Form{Run: func(in []byte) ([]sim.Report, sim.Stats) { return matchRows(m.Run(in)), sim.Stats{} }, Rows: true}
			forms["facade, Simulate"] = simtest.Form{Run: func(in []byte) ([]sim.Report, sim.Stats) {
				ms, err := m.Simulate(in)
				if err != nil {
					t.Fatal(err)
				}
				return matchRows(ms), sim.Stats{}
			}, Rows: true}
		}
		if la.Topo != nil {
			var workers []simtest.Form
			for _, domain := range la.Topo.Topology.Names() {
				w, err := impala.MachineFromArtifactDomain(la, domain)
				if err != nil {
					t.Fatal(err)
				}
				workers = append(workers, matches(t, c, w, false))
			}
			forms["per-domain machines, merged"] = simtest.Merged(workers...)
		}
	}
	return forms
}

// reload saves the machine's artifact a, loads it back and rebuilds the
// machine, which must describe itself as m does and save back the same bytes.
func reload(t testing.TB, name string, m *impala.Machine, a *artifact.Artifact) (*impala.Machine, *artifact.Artifact) {
	var saved, resaved bytes.Buffer
	if err := a.Save(&saved); err != nil {
		t.Fatal(err)
	}
	la, err := artifact.Load(bytes.NewReader(saved.Bytes()))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	lm, err := impala.MachineFromArtifact(la)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	describe := func(m *impala.Machine) string {
		bits, stride := m.Geometry()
		c := m.Config()
		return fmt.Sprintf("model %+v, geometry %d/%d, tier plan %+v, shard plan %+v, score table %+v, stride %d, CA mode %t, tier %t, shards %d",
			m.Model(), bits, stride, m.TierInfo(), m.ShardInfo(), m.ScoreInfo(), c.StrideDims, c.CAMode, c.Tier, c.Shards)
	}
	if got, want := describe(lm), describe(m); got != want {
		t.Fatalf("%s: loaded, the machine describes itself as %s; saved, as %s", name, got, want)
	}
	again := lm.Artifact()
	again.SetTopo(la.Topo)
	if err := again.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), saved.Bytes()) {
		t.Fatalf("%s: the loaded machine saves %d bytes, not the %d it was loaded from", name, resaved.Len(), saved.Len())
	}
	return lm, la
}

func matchRows(ms []impala.Match) []sim.Report {
	out := make([]sim.Report, len(ms))
	for i, mt := range ms {
		out[i] = simtest.MatchRow(mt.End, mt.Pattern)
	}
	return out
}

// matches is a machine's facade form: Match and NewStream, or MatchScored
// and NewScoredStream, whose every row must carry the score the one-shot
// gives it over the case's input.
func matches(t testing.TB, c *simtest.Case, m *impala.Machine, scored bool) simtest.Form {
	if !scored {
		return simtest.Form{
			Open: func(sink sim.ReportSink) simtest.Stream {
				return m.NewStream(func(mt impala.Match) { sink(simtest.MatchRow(mt.End, mt.Pattern)) })
			},
			Run:  func(in []byte) ([]sim.Report, sim.Stats) { return matchRows(m.Match(in)), sim.Stats{} },
			Rows: true,
		}
	}
	matchScored := func(in []byte) []impala.ScoredMatch {
		sms, err := m.MatchScored(in)
		if err != nil {
			t.Fatal(err)
		}
		return sms
	}
	scores := map[impala.Match]float64{}
	for _, sm := range matchScored(c.Input) {
		scores[sm.Match] = sm.Score
	}
	row := func(sm impala.ScoredMatch) sim.Report {
		if want, ok := scores[sm.Match]; ok && sm.Score != want {
			t.Fatalf("%s: match %+v scores %g, the one-shot %g", c.Name, sm.Match, sm.Score, want)
		}
		return simtest.MatchRow(sm.End, sm.Pattern)
	}
	return simtest.Form{
		Open: func(sink sim.ReportSink) simtest.Stream {
			s, err := m.NewScoredStream(func(sm impala.ScoredMatch) { sink(row(sm)) })
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		Run: func(in []byte) ([]sim.Report, sim.Stats) {
			var out []sim.Report
			for _, sm := range matchScored(in) {
				out = append(out, row(sm))
			}
			return out, sim.Stats{}
		},
		Rows: true,
	}
}
