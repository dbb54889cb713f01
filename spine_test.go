package impala_test

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"impala"
	"impala/internal/artifact"
	"impala/internal/dfa"
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
//     3-shard and tiered 3-shard machines and of the plain, tiered and tiered
//     3-shard ones under random weights and the open threshold, and the
//     capsule-level Run and the graph-level Simulate of the plain one;
//   - each of the seven saved, loaded and rebuilt by MachineFromArtifact, the
//     plain one stamped with a build time, the tiered 3-shard ones placed on
//     two domains;
//   - the machines MachineFromArtifactDomain builds for those domains, merged
//     as the cluster frontend merges them, scored and binary.
//
// Every one-shot must come out in (End, Pattern) order, which /match encodes
// as it lies, and every machine's AppendMatch must append Match's rows behind
// a prefix it leaves as it was. Each machine's artifact must carry the tier and shard plans, and
// the machine the score summary, its configuration calls for (and the tiered
// ones a DFA on some case); a loaded one must keep its Model, geometry, score
// summary, design point and scores and save back the bytes it was loaded
// from, as must each domain's, which must
// also summarize the score table as the whole machine does; a stream must
// score each row as the one-shot does; the domains' scores, merged, must be
// the whole machine's.
func TestSpine(t *testing.T) {
	dfas := map[string]bool{}
	var last *simtest.Case
	var forms map[string]simtest.Form
	var rows []simtest.Row
	for _, name := range []string{"8-bit source, scalar engine", "facade, plain", "facade, tiered", "facade, 3 shards",
		"facade, 3 shards, tiered", "facade, scored", "facade, scored, tiered", "facade, scored, 3 shards, tiered",
		"facade, capsule-level Run", "facade, Simulate", "artifact, plain", "artifact, tiered", "artifact, 3 shards",
		"artifact, 3 shards, tiered", "artifact, scored", "artifact, scored, tiered", "artifact, scored, 3 shards, tiered",
		"per-domain machines, merged", "per-domain scored machines, merged"} {
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
	for _, config := range []string{"plain", "tiered", "3 shards", "3 shards, tiered", "scored", "scored, tiered", "scored, 3 shards, tiered"} {
		cfg := impala.Config{StrideDims: c.NFA.Stride, CAMode: c.NFA.Bits == 8}
		if strings.Contains(config, "tiered") {
			cfg.Tier, cfg.TierBudget = true, c.SplitBudget(t)
		}
		if strings.Contains(config, "3 shards") {
			cfg.Shards = 3
		}
		scored := strings.HasPrefix(config, "scored")
		if scored {
			cfg.Score = simtest.RandomWeights(c.Source, 1)
		}
		m, err := impala.CompileAutomaton(c.Source, cfg)
		if err != nil {
			t.Fatalf("%s, %s: %v", c.Name, config, err)
		}
		a := m.Artifact()
		ti, si, sc := a.Tier, a.Shards, m.ScoreInfo()
		if (ti != nil) != (cfg.Tier && cfg.Shards == 0) || (si != nil) != (cfg.Shards == 3) || (si != nil && si.Plan.Shards != 3) || (sc != nil) != scored {
			t.Fatalf("%s, %s: tier plan %t, shard plan %t, score table %+v", c.Name, config, ti != nil, si != nil, sc)
		}
		dfas[config] = dfas[config] || ti != nil && ti.DFA != nil ||
			si != nil && slices.ContainsFunc(si.Tiers, func(t *dfa.Sealed) bool { return t != nil && t.DFA != nil })

		if strings.HasSuffix(config, "3 shards, tiered") {
			a.SetTopo(&topo.Sealed{Topology: topo.Topology{Domains: []topo.Domain{{Name: "n0"}, {Name: "n1"}}}, ShardDomain: []int{0, 1, 0}})
		}
		if config == "plain" {
			a.Meta.CreatedUnix = 1700000000 // as impalac stamps it
		}
		loaded, la, saved := reload(t, c.Name+", "+config, m, a)
		forms["facade, "+config], forms["artifact, "+config] = matches(t, c, m), matches(t, c, loaded)
		want := m.Match(c.Input)
		appendsBehind(t, c.Name+", "+config, m, c.Input, want)
		if got := loaded.Match(c.Input); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s, %s: the loaded machine matches %v, the saved one %v", c.Name, config, got, want)
		}
		if config == "plain" {
			forms["facade, capsule-level Run"] = simtest.Form{Run: func(in []byte) ([]sim.Report, sim.Stats) { return matchRows(t, c, m.Run(in)), sim.Stats{} }, Rows: true}
			forms["facade, Simulate"] = simtest.Form{Run: func(in []byte) ([]sim.Report, sim.Stats) {
				ms, err := m.Simulate(in)
				if err != nil {
					t.Fatal(err)
				}
				return matchRows(t, c, ms), sim.Stats{}
			}, Rows: true}
		}
		if la.Topo != nil {
			var workers []simtest.Form
			got := map[[2]int]float64{}
			for _, domain := range la.Topo.Topology.Names() {
				w, err := impala.MachineFromArtifactDomain(la, domain)
				if err != nil {
					t.Fatal(err)
				}
				if resaved := save(t, w.Artifact()); !bytes.Equal(resaved, saved) {
					t.Fatalf("%s, %s: domain %s's machine saves %d bytes, not the %d it was loaded from", c.Name, config, domain, len(resaved), len(saved))
				}
				if got := w.ScoreInfo(); !reflect.DeepEqual(got, sc) {
					t.Fatalf("%s, %s: domain %s's machine summarizes the score table as %+v, the whole machine as %+v", c.Name, config, domain, got, sc)
				}
				workers = append(workers, matches(t, c, w))
				for _, mt := range w.Match(c.Input) {
					if s, ok := got[key(mt)]; !ok || mt.Score > s {
						got[key(mt)] = mt.Score
					}
				}
			}
			if whole := scores(want); !reflect.DeepEqual(got, whole) {
				t.Fatalf("%s, %s: the domains score %v, the whole machine %v", c.Name, config, got, whole)
			}
			name := "per-domain machines, merged"
			if scored {
				name = "per-domain scored machines, merged"
			}
			forms[name] = simtest.Merged(workers...)
		}
	}
	return forms
}

// appendsBehind checks that m.AppendMatch appends want, m.Match(in), to a
// prefix it leaves as it was — with room and without, and also where the
// prefix's last row is the first new row's (End, Pattern), which the fold must
// not merge into.
func appendsBehind(t testing.TB, name string, m *impala.Machine, in []byte, want []impala.Match) {
	prefixes := [][]impala.Match{{{End: -1, Pattern: 7, Score: 9}}}
	if len(want) > 0 {
		prefixes = append(prefixes, []impala.Match{{End: 0, Pattern: 1}, {End: want[0].End, Pattern: want[0].Pattern, Score: want[0].Score - 1}})
	}
	for _, prefix := range prefixes {
		for _, room := range []int{0, len(want)} {
			dst := append(make([]impala.Match, 0, len(prefix)+room), prefix...)
			if got := m.AppendMatch(dst, in); !slices.Equal(got, append(slices.Clone(prefix), want...)) {
				t.Fatalf("%s: AppendMatch behind %v (room for %d more) returns %v, want the prefix and Match's %v", name, prefix, room, got, want)
			}
		}
	}
}

// save returns the bytes a saves.
func save(t testing.TB, a *artifact.Artifact) []byte {
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reload saves the machine's artifact a, loads it back and rebuilds the
// machine, which must describe itself as m does and save back the same bytes;
// it returns the rebuilt machine, the loaded artifact and the bytes.
func reload(t testing.TB, name string, m *impala.Machine, a *artifact.Artifact) (*impala.Machine, *artifact.Artifact, []byte) {
	saved := save(t, a)
	la, err := artifact.Load(bytes.NewReader(saved))
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
		return fmt.Sprintf("model %+v, geometry %d/%d, score table %+v, stride %d, CA mode %t, tier %t, shards %d",
			m.Model(), bits, stride, m.ScoreInfo(), c.StrideDims, c.CAMode, c.Tier, c.Shards)
	}
	if got, want := describe(lm), describe(m); got != want {
		t.Fatalf("%s: loaded, the machine describes itself as %s; saved, as %s", name, got, want)
	}
	if resaved := save(t, lm.Artifact()); !bytes.Equal(resaved, saved) {
		t.Fatalf("%s: the loaded machine saves %d bytes, not the %d it was loaded from", name, len(resaved), len(saved))
	}
	return lm, la, saved
}

// matchRows is the facade's matches as rows, which must come in strictly
// ascending (End, Pattern) order.
func matchRows(t testing.TB, c *simtest.Case, ms []impala.Match) []sim.Report {
	out := make([]sim.Report, len(ms))
	for i, mt := range ms {
		if i > 0 && (mt.End < ms[i-1].End || mt.End == ms[i-1].End && mt.Pattern <= ms[i-1].Pattern) {
			t.Fatalf("%s: match %d, %+v, comes after %+v: out of (End, Pattern) order", c.Name, i, mt, ms[i-1])
		}
		out[i] = simtest.MatchRow(mt.End, mt.Pattern)
	}
	return out
}

// key is a match without its score.
func key(mt impala.Match) [2]int { return [2]int{mt.End, mt.Pattern} }

// scores maps each match to its score.
func scores(ms []impala.Match) map[[2]int]float64 {
	out := make(map[[2]int]float64, len(ms))
	for _, mt := range ms {
		out[key(mt)] = mt.Score
	}
	return out
}

// matches is a machine's facade form, Match and NewStream, whose every
// stream row must carry the score the one-shot gives it over the case's
// input (0 on a binary machine).
func matches(t testing.TB, c *simtest.Case, m *impala.Machine) simtest.Form {
	want := scores(m.Match(c.Input))
	return simtest.Form{
		Open: func(sink sim.ReportSink) simtest.Stream {
			return m.NewStream(func(mt impala.Match) {
				if s, ok := want[key(mt)]; ok && mt.Score != s {
					t.Fatalf("%s: match %+v scores %g, the one-shot %g", c.Name, mt, mt.Score, s)
				}
				sink(simtest.MatchRow(mt.End, mt.Pattern))
			})
		},
		Run:  func(in []byte) ([]sim.Report, sim.Stats) { return matchRows(t, c, m.Match(in)), sim.Stats{} },
		Rows: true,
	}
}
