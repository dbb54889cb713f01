package impala_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"slices"
	"testing"

	"impala"
	"impala/internal/artifact"
	"impala/internal/dfa"
	"impala/internal/regexc"
	"impala/internal/sim/simtest"
	"impala/internal/topo"
)

// loadInput hits every rule of the compositions' rule set.
var loadInput = []byte("an impala at the block edge, goooal, black eedge impala")

// twoDomains places three shards on two domains.
var twoDomains = &topo.Sealed{Topology: topo.Topology{Domains: []topo.Domain{{Name: "n0"}, {Name: "n1"}}}, ShardDomain: []int{0, 1, 0}}

// compositions seals one artifact of every composition a machine can hold —
// plain, tiered, 3 shards, 3 shards on two domains, scored, scored and
// tiered, and scored in 3 tiered shards on two domains — each stamped with a
// build time as impalac stamps it.
func compositions(t testing.TB) map[string][]byte {
	src := regexc.MustCompile([]regexc.Rule{
		{Pattern: "impala", Code: 1}, {Pattern: "bl[ao]ck", Code: 2}, {Pattern: "e+dge", Code: 3}, {Pattern: "go+al", Code: 4},
	})
	w := simtest.RandomWeights(src, 1)
	out := map[string][]byte{}
	for name, cfg := range map[string]impala.Config{
		"plain":                              {StrideDims: 4},
		"tiered":                             {StrideDims: 4, Tier: true},
		"3 shards":                           {StrideDims: 4, Shards: 3},
		"3 shards, topology":                 {StrideDims: 4, Shards: 3},
		"scored":                             {StrideDims: 4, Score: w},
		"scored, tiered":                     {StrideDims: 4, Tier: true, Score: w},
		"scored, 3 shards, tiered, topology": {StrideDims: 4, Tier: true, Shards: 3, Score: w},
	} {
		m, err := impala.CompileAutomaton(src, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		a := m.Artifact()
		a.Meta.CreatedUnix = 1700000000
		if cfg.Shards > 0 && name != "3 shards" {
			a.SetTopo(twoDomains)
		}
		out[name] = save(t, a)
	}
	return out
}

// TestArtifactRoundTrip pins that a machine's artifact is the one it was
// built from: a loaded machine — and each topology worker's, which hosts a
// shard subset — saves back exactly the bytes it was loaded from, for every
// composition; and editing the copy Artifact returns (SetTopo, as a cluster
// deployment does to a compiled machine's) leaves the machine's own artifact
// as it was.
func TestArtifactRoundTrip(t *testing.T) {
	for name, sealed := range compositions(t) {
		m, err := impala.LoadMachine(bytes.NewReader(sealed))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		machines := map[string]*impala.Machine{"loaded": m}
		if a := m.Artifact(); a.Topo != nil {
			for _, domain := range a.Topo.Topology.Names() {
				if machines["domain "+domain], err = impala.MachineFromArtifactDomain(a, domain); err != nil {
					t.Fatalf("%s, domain %s: %v", name, domain, err)
				}
			}
		}
		for form, m := range machines {
			if got := saveMachine(t, m); !bytes.Equal(got, sealed) {
				t.Errorf("%s, %s: saves %d bytes, not the %d it was loaded from", name, form, len(got), len(sealed))
			}
			c := m.Artifact()
			c.SetTopo(twoDomains)
			c.Meta.CreatedUnix = 0
			c.Stages = nil
			if got := saveMachine(t, m); !bytes.Equal(got, sealed) {
				t.Errorf("%s, %s: editing the artifact it returned edited the machine's", name, form)
			}
		}
	}
	m, err := impala.CompileAutomaton(regexc.MustCompile([]regexc.Rule{{Pattern: "a[bc]d", Code: 0}, {Pattern: "xyz", Code: 1}}), impala.Config{StrideDims: 4, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	before := saveMachine(t, m)
	m.Artifact().SetTopo(twoDomains)
	if got := saveMachine(t, m); !bytes.Equal(got, before) {
		t.Error("SetTopo on a compiled machine's artifact placed the machine")
	}
}

// TestServingWalksTheSealedDFA pins that a DFA table is checked once, where
// it is sealed or decoded: the serving form walks the very value the
// artifact holds — a tiered machine's union DFA and a sharded machine's
// per-shard DFAs are the artifact's own pointers, compiled or loaded.
func TestServingWalksTheSealedDFA(t *testing.T) {
	src := regexc.MustCompile([]regexc.Rule{
		{Pattern: "impala", Code: 1}, {Pattern: "bl[ao]ck", Code: 2}, {Pattern: "e+dge", Code: 3}, {Pattern: "go+al", Code: 4},
	})
	for name, cfg := range map[string]impala.Config{
		"tiered":           {StrideDims: 4, Tier: true},
		"3 shards, tiered": {StrideDims: 4, Tier: true, Shards: 3},
	} {
		compiled, err := impala.CompileAutomaton(src, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		loaded, err := impala.LoadMachine(bytes.NewReader(saveMachine(t, compiled)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for form, m := range map[string]*impala.Machine{"compiled": compiled, "loaded": loaded} {
			a := m.Artifact()
			var sealed []*dfa.DFA
			if a.Tier != nil {
				sealed = append(sealed, a.Tier.DFA)
			}
			if a.Shards != nil {
				for _, st := range a.Shards.Tiers {
					if st != nil && st.DFA != nil {
						sealed = append(sealed, st.DFA)
					}
				}
			}
			if len(sealed) == 0 {
				t.Fatalf("%s, %s: the artifact seals no DFA", name, form)
			}
			if got := m.WalkedDFAs(); !slices.Equal(got, sealed) {
				t.Errorf("%s, %s: serving walks DFAs %p, the artifact seals %p", name, form, got, sealed)
			}
		}
	}
}

// saveMachine returns the bytes m saves.
func saveMachine(t testing.TB, m *impala.Machine) []byte {
	var buf bytes.Buffer
	if err := m.SaveArtifact(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLoadMachine drives LoadMachine, and MachineFromArtifactDomain for every
// domain of an artifact that carries a topology, with arbitrary bytes whose
// CRC is re-stamped so that mutations reach the section decoders and the plan
// checks; the seeds are every composition and every row of
// TestLoadRefusesBrokenPlans, an artifact that loads and whose plans the
// unseal checks refuse. It is the target that covers plan consistency:
// artifact.Load leaves that to the machine. Neither may panic; every machine
// they build saves back the very
// bytes it was built from; and a binary machine whose plans carry no DFA
// table matches what the scalar simulator matches over its automaton. A sealed
// DFA table is trusted, not determinized again — that cost is what sealing it
// saves — so a flip inside one that keeps every bound can change what the
// walker matches, and there the target asks only the first two.
func FuzzLoadMachine(f *testing.F) {
	for _, sealed := range compositions(f) {
		f.Add(sealed)
	}
	for _, b := range brokenPlans(f) {
		f.Add(b.sealed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 16 {
			return
		}
		data = append([]byte(nil), data...)
		binary.LittleEndian.PutUint32(data[12:], crc32.Checksum(data[16:], crc32.MakeTable(crc32.Castagnoli)))
		machines := map[string]*impala.Machine{}
		if m, err := impala.LoadMachine(bytes.NewReader(data)); err == nil {
			machines["loaded"] = m
		}
		if a, err := artifact.Load(bytes.NewReader(data)); err == nil && a.Topo != nil {
			for _, domain := range a.Topo.Topology.Names() {
				if m, err := impala.MachineFromArtifactDomain(a, domain); err == nil {
					machines["domain "+domain] = m
				}
			}
		}
		for form, m := range machines {
			if got := saveMachine(t, m); !bytes.Equal(got, data) {
				t.Fatalf("%s: saves %d bytes, not the %d it was built from", form, len(got), len(data))
			}
		}
		m := machines["loaded"]
		if m == nil || m.ScoreInfo() != nil || carriesDFA(m.Artifact()) {
			return
		}
		want, err := m.Simulate(loadInput)
		if err != nil {
			return
		}
		if got := m.Match(loadInput); !reflect.DeepEqual(got, want) {
			t.Fatalf("Match %v, Simulate %v", got, want)
		}
	})
}

// carriesDFA reports whether a's plans carry a DFA table.
func carriesDFA(a *artifact.Artifact) bool {
	if a.Tier != nil && a.Tier.DFA != nil {
		return true
	}
	return a.Shards != nil && slices.ContainsFunc(a.Shards.Tiers, func(t *dfa.Sealed) bool { return t != nil && t.DFA != nil })
}
