package impala

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"impala/internal/regexc"
	"impala/internal/sim"
)

// FuzzPipeline drives the whole pipeline end to end: two regexes of at most
// 24 bytes each and an input of at most 512, compiled at stride 1, 2 or 4,
// with or without the tier plan, in one shard or two (the design byte picks
// among the twelve). Match, the capsule machine's Run and Match on the
// machine saved and loaded back must each return what the scalar simulator
// matches over the regexes' own 8-bit stride-1 automaton: one row per
// distinct (End, Pattern) of its reports.
func FuzzPipeline(f *testing.F) {
	for _, s := range []struct {
		re1, re2, input string
		design          uint8
	}{
		{"impala", "bl[ao]ck", "an impala at the block edge", 0},
		{"e+dge", "go+al", "goooal, black eedge impala", 4},
		{"a.*b", "[0-9]{2,3}x", "a12x 345x b a999xb", 8},
		{"^GET /", `\d+\.\d+`, "GET /10.0 HTTP/1.1 GET /", 11},
		{"(ab|cd)+e", "x?y*z", "abcde zz xyz ababe", 7},
	} {
		f.Add(s.re1, s.re2, []byte(s.input), s.design)
	}
	f.Fuzz(func(t *testing.T, re1, re2 string, input []byte, design uint8) {
		if len(re1) > 24 || len(re2) > 24 || len(input) > 512 {
			return
		}
		n8, err := regexc.Compile([]regexc.Rule{{Pattern: re1, Code: 0}, {Pattern: re2, Code: 1}})
		if err != nil {
			return
		}
		e, err := sim.NewEngine(n8)
		if err != nil {
			t.Fatal(err)
		}
		reports, _ := e.Run(input, nil)
		var want []Match
		for _, r := range reports {
			if mt := (Match{End: r.BitPos / 8, Pattern: r.Code}); !slices.Contains(want, mt) {
				want = append(want, mt)
			}
		}
		sortMatches(want)

		cfg := Config{StrideDims: []int{1, 2, 4}[design%3], Tier: design/3%2 == 1, Shards: 2 * int(design/6%2)}
		what := func(form string) string {
			return fmt.Sprintf("%s of %q, %q at stride %d, tier %t, %d shards", form, re1, re2, cfg.StrideDims, cfg.Tier, cfg.Shards)
		}
		m, err := CompileAutomaton(n8, cfg)
		if err != nil {
			t.Fatalf("%s: %v", what("compile"), err)
		}
		var buf bytes.Buffer
		if err := m.Artifact().Save(&buf); err != nil {
			t.Fatalf("%s: %v", what("save"), err)
		}
		loaded, err := LoadMachine(&buf)
		if err != nil {
			t.Fatalf("%s: %v", what("load"), err)
		}
		for form, got := range map[string][]Match{
			"Match": m.Match(input), "Run": m.Run(input), "loaded Match": loaded.Match(input),
		} {
			if !slices.Equal(got, want) {
				t.Fatalf("%s over %q: %v, the scalar simulator %v", what(form), input, got, want)
			}
		}
	})
}
