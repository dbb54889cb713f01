package regexc

import (
	"testing"

	"impala/internal/sim"
)

// FuzzCompile: any pattern either fails cleanly or produces a valid
// automaton that the simulator can execute without panicking.
func FuzzCompile(f *testing.F) {
	for _, seed := range []string{
		"abc", "a|b", "(ab)+c?", "[a-z]{2,4}", `\x41\d+`, "^anchor",
		"a**", "((((", "[^\\n]*x", "{3}", "a{1,2}{3,4}", "[]", "\\",
		"0{0}*000", "(a{0})+b", "a{0}{0}",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, pattern string) {
		n, err := Compile([]Rule{{Pattern: pattern, Code: 1}})
		if err != nil {
			return // clean rejection
		}
		if verr := n.Validate(); verr != nil {
			t.Fatalf("pattern %q: invalid automaton: %v", pattern, verr)
		}
		if _, _, err := sim.Run(n, []byte("abcxyz0123\x00\xff")); err != nil {
			t.Fatalf("pattern %q: run failed: %v", pattern, err)
		}
	})
}
