package dfa

import (
	"errors"
	"math/rand"
	"testing"

	"impala/internal/automata"
	"impala/internal/bitvec"
	"impala/internal/regexc"
	"impala/internal/sim"
)

func build(t *testing.T, rules ...regexc.Rule) (*DFA, *automata.NFA) {
	t.Helper()
	n := regexc.MustCompile(rules)
	d, err := Build(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return d, n
}

func TestDFALiteral(t *testing.T) {
	d, n := build(t, regexc.Rule{Pattern: "abc", Code: 1})
	input := []byte("xxabcxabc")
	want, _, err := sim.Run(n, input)
	if err != nil {
		t.Fatal(err)
	}
	got := d.Run(input)
	if !sim.SameReports(want, got) {
		t.Fatalf("dfa=%v nfa=%v", sim.ReportKeys(got), sim.ReportKeys(want))
	}
	if d.Scan(input) != len(got) {
		t.Fatal("Scan count disagrees with Run")
	}
}

func TestDFAAnchoredMidstream(t *testing.T) {
	// The anchored pattern must not fire if the DFA returns to an empty
	// frontier mid-stream (the start-state aliasing trap).
	d, n := build(t,
		regexc.Rule{Pattern: "^head", Code: 1},
		regexc.Rule{Pattern: "zz", Code: 2},
	)
	input := []byte("qqqqhead zz head")
	want, _, err := sim.Run(n, input)
	if err != nil {
		t.Fatal(err)
	}
	got := d.Run(input)
	if !sim.SameReports(want, got) {
		t.Fatalf("dfa=%v nfa=%v", sim.ReportKeys(got), sim.ReportKeys(want))
	}
	if len(got) != 1 { // only the "zz"
		t.Fatalf("got %v", got)
	}
	// And it must fire at position 0.
	got2 := d.Run([]byte("head"))
	if len(got2) != 1 || got2[0].Code != 1 {
		t.Fatalf("anchored at 0: %v", got2)
	}
}

// Property: DFA equals NFA simulator on random rule sets and inputs.
func TestDFAMatchesNFARandom(t *testing.T) {
	r := rand.New(rand.NewSource(88))
	patterns := []string{
		"ab+c", "x[yz]{1,3}", `\d\d`, "(ab|ba)c", "a.b", "^go+al", "q",
	}
	for trial := 0; trial < 10; trial++ {
		k := 1 + r.Intn(len(patterns))
		var rules []regexc.Rule
		for i := 0; i < k; i++ {
			rules = append(rules, regexc.Rule{Pattern: patterns[(trial+i)%len(patterns)], Code: i})
		}
		d, n := build(t, rules...)
		for inTrial := 0; inTrial < 6; inTrial++ {
			input := make([]byte, 1+r.Intn(120))
			for i := range input {
				input[i] = "abcxyz019goq "[r.Intn(13)]
			}
			want, _, err := sim.Run(n, input)
			if err != nil {
				t.Fatal(err)
			}
			got := d.Run(input)
			if !sim.SameReports(want, got) {
				t.Fatalf("trial %d input %q: dfa=%v nfa=%v",
					trial, input, sim.ReportKeys(got), sim.ReportKeys(want))
			}
		}
	}
}

func TestDFABlowupCap(t *testing.T) {
	// Classic exponential case: .*a.{12} forces the DFA to remember 2^12
	// recent positions of 'a'.
	n := regexc.MustCompile([]regexc.Rule{{Pattern: "a.{12}b", Code: 1}})
	_, err := Build(n, Options{MaxStates: 1024})
	if !errors.Is(err, ErrStateBlowup) {
		t.Fatalf("expected blowup, got %v", err)
	}
}

func TestDFAGeneralGeometries(t *testing.T) {
	// The old byte-only construction rejected 4-bit and StartEven automata;
	// the phased construction determinizes both. Pin them against the
	// scalar simulator.
	n4 := automata.New(4, 1)
	a := n4.AddState(automata.State{
		Match: automata.MatchSet{automata.Rect{bitvec.ByteOf(1)}},
		Start: automata.StartAllInput,
	})
	b := n4.AddState(automata.State{
		Match:  automata.MatchSet{automata.Rect{bitvec.ByteOf(2)}},
		Report: true, ReportCode: 4,
	})
	n4.AddEdge(a, b)
	d4, err := Build(n4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	input := []byte{0x12, 0x21, 0x12}
	want, _, err := sim.Run(n4, input)
	if err != nil {
		t.Fatal(err)
	}
	got := d4.Run(input)
	if !sim.SameReports(want, got) {
		t.Fatalf("4-bit: dfa=%v nfa=%v", sim.ReportKeys(got), sim.ReportKeys(want))
	}
	if d4.Scan(input) != len(got) {
		t.Fatal("4-bit Scan count disagrees with Run")
	}

	even := automata.New(8, 1)
	even.AddState(automata.State{
		Match: automata.MatchSet{automata.Rect{bitvec.ByteOf('e')}},
		Start: automata.StartEven, Report: true, ReportCode: 9,
	})
	de, err := Build(even, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inEven := []byte("eeee")
	wantE, _, err := sim.Run(even, inEven)
	if err != nil {
		t.Fatal(err)
	}
	gotE := de.Run(inEven)
	if !sim.SameReports(wantE, gotE) {
		t.Fatalf("StartEven: dfa=%v nfa=%v", sim.ReportKeys(gotE), sim.ReportKeys(wantE))
	}
	if len(gotE) != 4 { // the state fires on every 'e' once enabled even-cycle
		// StartEven enables on cycles 0 and 2; successors keep it off
		// elsewhere — the simulator is the source of truth, just ensure
		// non-trivial coverage.
		t.Logf("StartEven reports: %v", gotE)
	}
}

func TestDFARejectsInvalid(t *testing.T) {
	n := automata.New(8, 1)
	n.AddState(automata.State{Start: automata.StartAllInput}) // empty match set
	if _, err := Build(n, Options{}); err == nil {
		t.Fatal("invalid automaton accepted")
	}
}

func TestDFATableBytes(t *testing.T) {
	d, _ := build(t, regexc.Rule{Pattern: "ab", Code: 1})
	if d.TableBytes() != d.NumStates()*256*2 {
		t.Fatalf("TableBytes = %d for %d states", d.TableBytes(), d.NumStates())
	}
}
