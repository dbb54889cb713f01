package impala

import (
	"bytes"
	"io"
	"reflect"
	"slices"
	"sync"
	"testing"

	"impala/internal/artifact"
	"impala/internal/automata"
	"impala/internal/bitvec"
	"impala/internal/interconnect"
	"impala/internal/place"
	"impala/internal/regexc"
	"impala/internal/sim/simtest"
	"impala/internal/topo"
)

// servingShapes compiles one machine of each shape from a few rules —
// plain, tiered, 3-shard, scored and a topology worker — saves each and
// loads it back, and returns both the compiled and the loaded machines with
// an input that hits every rule.
func servingShapes(t *testing.T) (map[string]*Machine, []byte) {
	t.Helper()
	src := regexc.MustCompile([]regexc.Rule{
		{Pattern: "impala", Code: 1}, {Pattern: "bl[ao]ck", Code: 2}, {Pattern: "e+dge", Code: 3}, {Pattern: "go+al", Code: 4},
	})
	input := []byte("an impala at the block edge, goooal, black eedge impala")
	shapes := map[string]*Machine{}
	for name, cfg := range map[string]Config{
		"plain":  DefaultConfig(),
		"tiered": {StrideDims: 4, Tier: true},
		"shards": {StrideDims: 4, Shards: 3},
		"scored": {StrideDims: 4, Score: simtest.RandomWeights(src, 1)},
	} {
		m, err := CompileAutomaton(src, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		a := m.Artifact()
		if name == "shards" {
			a.SetTopo(&topo.Sealed{Topology: topo.Topology{Domains: []topo.Domain{{Name: "n0"}, {Name: "n1"}}}, ShardDomain: []int{0, 1, 0}})
		}
		var buf bytes.Buffer
		if err := a.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadMachine(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		shapes[name], shapes["loaded "+name] = m, loaded
		if name == "shards" {
			la, err := artifact.Load(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if shapes["worker n1"], err = MachineFromArtifactDomain(la, "n1"); err != nil {
				t.Fatal(err)
			}
		}
	}
	return shapes, input
}

// TestServingNeverBuildsTheCapsule pins that nothing on the serving side —
// the summaries, the artifact, Match and a stream — builds the capsule
// machine, on every machine shape compiled or loaded; and that the first Run
// builds it once, however many goroutines make that call, and reports what
// Simulate reports.
func TestServingNeverBuildsTheCapsule(t *testing.T) {
	builds := countCapsuleBuilds(t)
	shapes, input := servingShapes(t)
	for name, m := range shapes {
		m.Model()
		m.Artifact()
		m.ScoreInfo()
		m.Config()
		m.Geometry()
		if err := m.SaveArtifact(io.Discard); err != nil {
			t.Fatal(err)
		}
		m.Match(input)
		s := m.NewStream(func(Match) {})
		s.Feed(input)
		s.Flush()
		if _, err := m.Simulate(input); err != nil {
			t.Fatal(err)
		}
		if got := builds.Load(); got != 0 {
			t.Fatalf("%s: serving built the capsule machine %d times", name, got)
		}
	}
	for name, m := range shapes {
		builds.Store(0)
		want, err := m.Simulate(input)
		if err != nil {
			t.Fatal(err)
		}
		got := make([][]Match, 8)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = m.Run(input)
			}()
		}
		wg.Wait()
		if n := builds.Load(); n != 1 {
			t.Fatalf("%s: 8 concurrent first Runs built the capsule machine %d times", name, n)
		}
		for i, g := range got {
			if !reflect.DeepEqual(g, want) {
				t.Fatalf("%s: Run %d reports %v, Simulate %v", name, i, g, want)
			}
		}
	}
}

// TestLoadRejectsUnbuildablePlacement is the facade's trust boundary: a
// sealed artifact whose placement artifact.Load accepts — every state of the
// automaton in exactly one slot — but which configures no capsule machine
// fails LoadMachine at load, not at the first Run, with the placement's
// error. A placement that puts a state in two slots is the artifact's to
// refuse, and LoadMachine refuses it with the artifact's text.
func TestLoadRejectsUnbuildablePlacement(t *testing.T) {
	type edit func(n *automata.NFA, pl *place.Placement)
	// move places state id on the given group's slot, appending G4s (G16s
	// when hier) until the group exists.
	move := func(id automata.StateID, group, slot int, hier bool) edit {
		return func(_ *automata.NFA, pl *place.Placement) {
			for _, g := range pl.G4s {
				if i := slices.Index(g.Slots, id); i >= 0 {
					g.Slots[i] = -1
				}
			}
			for len(pl.G4s) <= group {
				g := &place.G4Placement{Hierarchical: hier, Slots: make([]automata.StateID, interconnect.G4Size)}
				if hier {
					g.Slots = make([]automata.StateID, interconnect.G16Size)
				}
				for i := range g.Slots {
					g.Slots[i] = -1
				}
				pl.G4s = append(pl.G4s, g)
			}
			pl.G4s[group].Slots[slot] = id
		}
	}
	// seal saves the two-state automaton of "ab", placed and then edited.
	seal := func(name string, edits []edit) []byte {
		n := automata.New(8, 1)
		n.AddLiteral("ab", automata.StartAllInput, 1)
		pl, err := place.Place(n, place.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range edits {
			e(n, pl)
		}
		var buf bytes.Buffer
		if err := artifact.New(n, pl, n, artifact.Meta{}, nil).Save(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return buf.Bytes()
	}
	const pn, blk = interconnect.PortNodes, interconnect.LocalSwitchSize
	for _, tc := range []struct {
		name  string
		edits []edit
		want  string
	}{
		{"an edge across groups", []edit{move(1, 1, 0, false)},
			"impala: placement does not build: arch: edge 0->1 crosses switch groups"},
		{"a route the G4 fabric lacks", []edit{move(0, 0, pn, false), move(1, 0, blk+pn, false)},
			"impala: placement does not build: interconnect: pair (64,320) not covered by G4 fabric"},
		{"a route the G16 fabric lacks", []edit{move(0, 1, 16, true), move(1, 1, interconnect.G4Size+16, true), func(_ *automata.NFA, pl *place.Placement) {
			pl.G4s = pl.G4s[1:]
		}}, "impala: placement does not build: interconnect: pair (16,1040) not covered by G16 fabric"},
		{"a state that is not capsule-legal", []edit{func(n *automata.NFA, _ *place.Placement) {
			n.States[1].Match = append(n.States[1].Match, automata.Rect{bitvec.ByteOf('d')})
		}}, "impala: placement does not build: arch: state 1 is not capsule-legal (2 rects); run Refine first"},
	} {
		sealed := seal(tc.name, tc.edits)
		if _, err := artifact.Load(bytes.NewReader(sealed)); err != nil {
			t.Fatalf("%s: artifact.Load refuses it: %v", tc.name, err)
		}
		_, err := LoadMachine(bytes.NewReader(sealed))
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: LoadMachine error %v, want %q", tc.name, err, tc.want)
		}
	}
	twice := seal("a state placed twice and another never", []edit{move(1, 1, 0, false), func(_ *automata.NFA, pl *place.Placement) {
		pl.G4s[1].Slots[0] = 0
	}})
	_, err := LoadMachine(bytes.NewReader(twice))
	if want := "artifact: structurally invalid: group 1 state 0 placed twice"; err == nil || err.Error() != want {
		t.Errorf("a state placed twice and another never: LoadMachine error %v, want %q", err, want)
	}
}
