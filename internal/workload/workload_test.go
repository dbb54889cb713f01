package workload

import (
	"math"
	"testing"

	"impala/internal/sim"
)

func TestSuiteComplete(t *testing.T) {
	s := Suite()
	if len(s) != 21 {
		t.Fatalf("suite has %d benchmarks, want 21", len(s))
	}
	seen := map[string]bool{}
	for _, b := range s {
		if seen[b.Name] {
			t.Fatalf("duplicate benchmark %s", b.Name)
		}
		seen[b.Name] = true
		if b.PaperStates <= 0 || b.PaperTransitions <= 0 || b.PaperAvgDegree <= 0 || b.PaperLargestCC <= 0 {
			t.Fatalf("%s: missing paper stats", b.Name)
		}
	}
}

func TestGetAndNames(t *testing.T) {
	if _, ok := Get("Snort"); !ok {
		t.Fatal("Get(Snort) failed")
	}
	if _, ok := Get("NoSuch"); ok {
		t.Fatal("Get(NoSuch) succeeded")
	}
	if len(Names()) != 21 {
		t.Fatal("Names() wrong length")
	}
}

// Every generator must produce a valid automaton whose statistics land in
// the neighbourhood of the published Table 2 numbers.
func TestGeneratorsMatchTable2(t *testing.T) {
	const scale = 0.02
	for _, b := range Suite() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			n, err := b.Generate(scale, 1)
			if err != nil {
				t.Fatal(err)
			}
			st := n.ComputeStats()
			target := int(float64(b.PaperStates) * scale)
			if st.States < target || st.States > target+2*b.PaperLargestCC+600 {
				t.Fatalf("states = %d, target %d", st.States, target)
			}
			// Node degree within 40% of the paper's.
			if st.AvgDegree < b.PaperAvgDegree*0.6 || st.AvgDegree > b.PaperAvgDegree*1.4 {
				t.Fatalf("degree = %.2f, paper %.2f", st.AvgDegree, b.PaperAvgDegree)
			}
			// Largest CC within 2x of the paper's.
			if float64(st.LargestCC) > float64(b.PaperLargestCC)*2 {
				t.Fatalf("largest CC = %d, paper %d", st.LargestCC, b.PaperLargestCC)
			}
			// Every benchmark must have start states and report states.
			if len(n.StartStates()) == 0 || len(n.ReportStates()) == 0 {
				t.Fatal("no starts or no reports")
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	b, _ := Get("Dotstar06")
	n1, err := b.Generate(0.02, 7)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := b.Generate(0.02, 7)
	if err != nil {
		t.Fatal(err)
	}
	if n1.NumStates() != n2.NumStates() || n1.NumTransitions() != n2.NumTransitions() {
		t.Fatal("generation not deterministic")
	}
	n3, err := b.Generate(0.02, 8)
	if err != nil {
		t.Fatal(err)
	}
	if n3.NumStates() == n1.NumStates() && n3.NumTransitions() == n1.NumTransitions() {
		t.Log("different seeds produced identical shapes (possible but unusual)")
	}
}

func TestGenerateRejectsBadScale(t *testing.T) {
	b, _ := Get("Snort")
	if _, err := b.Generate(0, 1); err == nil {
		t.Fatal("scale 0 accepted")
	}
	if _, err := b.Generate(-1, 1); err == nil {
		t.Fatal("negative scale accepted")
	}
}

// The Figure 2 property: across the suite, the great majority of states
// match few symbols (paper: 73% exactly one, 86% at most eight).
func TestFigure2SymbolDistribution(t *testing.T) {
	var hist [5]int
	total := 0
	for _, b := range Suite() {
		n, err := b.Generate(0.01, 2)
		if err != nil {
			t.Fatal(err)
		}
		st := n.ComputeStats()
		for i, c := range st.MatchSymbolHistogram {
			hist[i] += c
		}
		total += st.States
	}
	single := float64(hist[0]) / float64(total)
	within8 := float64(hist[0]+hist[1]) / float64(total)
	if single < 0.55 {
		t.Fatalf("single-symbol fraction = %.2f, want >= 0.55 (paper: 0.73)", single)
	}
	if within8 < 0.75 {
		t.Fatalf("<=8-symbol fraction = %.2f, want >= 0.75 (paper: 0.86)", within8)
	}
	t.Logf("single=%.2f within8=%.2f (paper: 0.73 / 0.86)", single, within8)
}

// Generated benchmarks must actually produce reports on their own inputs —
// otherwise energy/activity experiments would be vacuous.
func TestInputsProduceActivity(t *testing.T) {
	for _, name := range []string{"ExactMatch", "Hamming", "SPM", "CoreRings"} {
		b, _ := Get(name)
		n, err := b.Generate(0.01, 3)
		if err != nil {
			t.Fatal(err)
		}
		input := Input(n, 4096, 4)
		_, stats, err := sim.Run(n, input)
		if err != nil {
			t.Fatal(err)
		}
		if stats.TotalActive == 0 {
			t.Fatalf("%s: no activity on generated input", name)
		}
	}
}

func TestHammingSemantics(t *testing.T) {
	// A Hamming automaton must accept its own pattern and 1/2-mismatch
	// variants, but not 3-mismatch variants.
	n, err := Suite()[13].Generate(0.011, 5) // Hamming
	if err != nil {
		t.Fatal(err)
	}
	if Suite()[13].Name != "Hamming" {
		t.Fatal("suite order changed")
	}
	// Recover a pattern: walk the first CC's match states (every state in
	// row e=0 matches exactly one symbol).
	ccs := n.ConnectedComponents()
	first := ccs[0]
	// The generator creates states in order: e0 row interleaved match/miss.
	pat := make([]byte, 20)
	for i := 0; i < 20; i++ {
		s := n.States[first[2*i]]
		pat[i] = s.Match[0][0].Values()[0]
	}
	run := func(in []byte) int {
		reports, _, err := sim.Run(n, in)
		if err != nil {
			t.Fatal(err)
		}
		count := 0
		for _, r := range reports {
			if r.BitPos == len(in)*8 {
				count++
			}
		}
		return count
	}
	if run(pat) == 0 {
		t.Fatal("exact pattern not accepted")
	}
	two := append([]byte(nil), pat...)
	two[3] ^= 1
	two[10] ^= 1
	if run(two) == 0 {
		t.Fatal("2-mismatch variant not accepted")
	}
	three := append([]byte(nil), two...)
	three[15] ^= 1
	if run(three) != 0 {
		t.Fatal("3-mismatch variant accepted (d=2)")
	}
}

func TestInputBiased(t *testing.T) {
	b, _ := Get("ExactMatch")
	n, err := b.Generate(0.01, 6)
	if err != nil {
		t.Fatal(err)
	}
	in := Input(n, 10000, 7)
	if len(in) != 10000 {
		t.Fatal("wrong input length")
	}
	// Biased inputs should be far from uniform: count distinct bytes.
	var histo [256]int
	for _, c := range in {
		histo[c]++
	}
	max := 0
	for _, h := range histo {
		if h > max {
			max = h
		}
	}
	if float64(max) < 10000.0/256*2 {
		t.Fatalf("input looks uniform (max bucket %d)", max)
	}
	if math.IsNaN(float64(max)) {
		t.Fatal("unreachable")
	}
}

func TestLevenshteinSemantics(t *testing.T) {
	b, _ := Get("Levenshtein")
	n, err := b.Generate(0.05, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Recover the first CC's pattern: generator order interleaves
	// match/any per (e,i); row e=0 match states are at even positions.
	ccs := n.ConnectedComponents()
	first := ccs[0]
	const L = 19
	pat := make([]byte, L)
	for i := 0; i < L; i++ {
		pat[i] = n.States[first[2*i]].Match[0][0].Values()[0]
	}
	countEnd := func(in []byte) int {
		reports, _, err := sim.Run(n, in)
		if err != nil {
			t.Fatal(err)
		}
		c := 0
		for _, r := range reports {
			if r.BitPos == len(in)*8 {
				c++
			}
		}
		return c
	}
	if countEnd(pat) == 0 {
		t.Fatal("exact pattern not accepted")
	}
	// One substitution.
	sub := append([]byte(nil), pat...)
	sub[5] ^= 1
	if countEnd(sub) == 0 {
		t.Fatal("1-substitution variant not accepted")
	}
	// One deletion (drop a middle character).
	del := append(append([]byte(nil), pat[:7]...), pat[8:]...)
	if countEnd(del) == 0 {
		t.Fatal("1-deletion variant not accepted")
	}
	// One insertion.
	ins := append([]byte(nil), pat[:9]...)
	ins = append(ins, 'X')
	ins = append(ins, pat[9:]...)
	if countEnd(ins) == 0 {
		t.Fatal("1-insertion variant not accepted")
	}
}
