package dfa_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"impala/internal/automata"
	"impala/internal/dfa"
	"impala/internal/obs"
	"impala/internal/sim"
	"impala/internal/sim/simtest"
)

// This package's rows of the differential spine (simtest.Spine): the tiered
// form at the default budget and at the case's split budget — under which,
// on some case, the DFA tier and the kernel both hold components, and on
// some the DFA, stepping bytes, has a kernel beside it — and the walker over
// K DFAs as one lane, the components dealt round-robin onto K
// determinizations, K odd and even.
func TestSpine(t *testing.T) {
	bothTiers, bytesBesideKernel, unpackedBesideKernel := false, false, false
	var rows []simtest.Row
	for _, name := range []string{"tiered", "tiered, split budget"} {
		rows = append(rows, simtest.Row{Name: name, Build: func(t testing.TB, c *simtest.Case) (simtest.Form, bool) {
			opts := dfa.TierOptions{MinStateShare: -1}
			if name != "tiered" {
				opts.CCMaxStates = c.SplitBudget(t)
			}
			tf, err := dfa.BuildTiered(c.NFA, opts)
			if err != nil {
				t.Fatal(err)
			}
			bothTiers = bothTiers || tf.DFA() != nil && tf.Plan().NFAStates > 0
			if w := checkLane(t, tf); w != nil && w.HasKernel() && c.NFA.Bits < 8 {
				bits, _ := w.Geometry()
				bytesBesideKernel = bytesBesideKernel || bits == 8 && tf.DFA().Step() > 1
				unpackedBesideKernel = unpackedBesideKernel || bits == 8 && tf.DFA().Step() == 1
			}
			return simtest.SessionForm(tf.NewSession, tf.AppendRun), true
		}})
	}
	for _, k := range []int{1, 2, 3, 5} {
		rows = append(rows, simtest.Row{Name: fmt.Sprintf("walker over %d DFAs", k), Build: func(t testing.TB, c *simtest.Case) (simtest.Form, bool) {
			return walker(t, c.NFA, k)
		}})
	}
	simtest.Spine(t, rows...)
	if !bothTiers {
		t.Error("no tiered form kept both tiers; the walker with a kernel beside it went unexercised")
	}
	if !bytesBesideKernel {
		t.Error("no walker that steps bytes had a kernel beside it; the kernel's bytes from the walker's block went unexercised")
	}
	if !unpackedBesideKernel {
		t.Error("no walker that steps sub-symbols had a kernel that takes bytes beside it; the walker's unpacked sub-symbols went unexercised")
	}
}

// checkLane fails unless tf's one lane is a walker iff tf has a DFA tier and
// steps a kernel, beside the walker or alone, iff a state is left to one, and
// unless the walker takes bytes iff its DFA steps them or a kernel beside it
// does (a cycle of whole bytes); it returns the walker, nil when the lane is
// none.
func checkLane(t testing.TB, tf *dfa.Tiered) *dfa.Core {
	t.Helper()
	kernel, ln := tf.Plan().NFAStates > 0, tf.Lane()
	var w *dfa.Core
	if ln.New != nil {
		w, _ = ln.New().(*dfa.Core)
	}
	switch {
	case (w != nil) != (tf.DFA() != nil):
		t.Fatalf("the lane walks DFAs %t, the form has a DFA tier %t", w != nil, tf.DFA() != nil)
	case w != nil && w.HasKernel() != kernel:
		t.Fatalf("the walker steps a kernel %t, %d states are left to one", w.HasKernel(), tf.Plan().NFAStates)
	case w == nil && (ln.New != nil) != kernel:
		t.Fatalf("a kernel lane %t, %d states are left to one", ln.New != nil, tf.Plan().NFAStates)
	}
	if w != nil {
		d := tf.DFA()
		wholeBytes := d.Bits()*d.Stride()%8 == 0
		if bits, _ := w.Geometry(); (bits == 8 && d.Bits() < 8) != (d.Bits() < 8 && (d.Step() > 1 || w.HasKernel() && wholeBytes)) {
			t.Fatalf("the walker takes %d-bit symbols, its DFA steps %d sub-symbols a lookup, a kernel beside it %t", bits, d.Step(), w.HasKernel())
		}
	}
	return w
}

// Within a cycle the walker emits its DFAs' reports before the kernel's, as
// the lockstep did when the walker and the kernel were two lanes in that
// order: a stream retires its collision window in first-report order, so
// the order within a cycle reaches a /stream client.
func TestTieredSinkOrder(t *testing.T) {
	checked := false
	for _, c := range simtest.Cases(t) {
		tf, err := dfa.BuildTiered(c.NFA, dfa.TierOptions{MinStateShare: -1, CCMaxStates: c.SplitBudget(t)})
		if err != nil {
			t.Fatal(err)
		}
		if tf.DFA() == nil || tf.Plan().NFAStates == 0 {
			continue
		}
		orig := tf.Lane().Orig
		onKernel := map[automata.StateID]bool{}
		for _, id := range orig[len(orig)-tf.Plan().NFAStates:] {
			onKernel[id] = true
		}
		var got []sim.Report
		s := tf.NewSession(func(r sim.Report) { got = append(got, r) })
		s.Feed(c.Input)
		s.Flush()
		cycle := func(r sim.Report) int { return (r.BitPos - 1) / (c.NFA.Bits * c.NFA.Stride) }
		for i := 1; i < len(got); i++ {
			prev, r := got[i-1], got[i]
			same := cycle(prev) == cycle(r)
			if same && onKernel[prev.State] && !onKernel[r.State] {
				t.Fatalf("%s: in cycle %d the DFA tier's report of state %d follows the kernel's of state %d", c.Name, cycle(r), r.State, prev.State)
			}
			checked = checked || same && onKernel[prev.State] != onKernel[r.State]
		}
	}
	if !checked {
		t.Error("no case reported on both tiers in one cycle; the order went unchecked")
	}
}

// walker deals n's components onto k DFAs walked as one lane; it does not
// apply when n has fewer than k components or one of the k determinizations
// outgrows 1,024 states.
func walker(t testing.TB, n *automata.NFA, k int) (simtest.Form, bool) {
	ccs := n.ConnectedComponents()
	if len(ccs) < k {
		return simtest.Form{}, false
	}
	origs := make([][]automata.StateID, k)
	for i, cc := range ccs {
		origs[i%k] = append(origs[i%k], cc...)
	}
	ds := make([]*dfa.DFA, k)
	for i, ids := range origs {
		slices.Sort(ids)
		d, err := dfa.BuildIn(n, ids, dfa.Options{MaxStates: 1024, Workers: 1})
		if errors.Is(err, dfa.ErrStateBlowup) {
			return simtest.Form{}, false
		}
		if err != nil {
			t.Fatal(err)
		}
		ds[i] = d
	}
	l := sim.NewLockstep(n.Bits, n.Stride, dfa.Lane(ds, origs))
	return simtest.SessionForm(l.NewSession, l.AppendRun), true
}

// The spine's dot-star case is the one whose speculation misses: its rule is
// armed early in the first block, so a later segment guessed from the
// block's entry state reaches its seam in the wrong state and is walked
// again. It keeps pinning the re-walk whatever warm-up or segmenting the
// walker uses.
func TestSpineCaseRewalks(t *testing.T) {
	for _, c := range simtest.Cases(t) {
		if c.Name != "dot-star regex 8-bit x 1" {
			continue
		}
		tf, err := dfa.BuildTiered(c.NFA, dfa.TierOptions{MinStateShare: -1})
		if err != nil {
			t.Fatal(err)
		}
		if tf.DFA() == nil || tf.Plan().NFAStates != 0 {
			t.Fatalf("the case tiers to %d DFA and %d NFA states, want all on the DFA", tf.Plan().DFANFAStates, tf.Plan().NFAStates)
		}
		reg := obs.NewRegistry()
		dfa.EnableMetrics(reg)
		defer dfa.EnableMetrics(nil)
		tf.Run(c.Input)
		if n := reg.Snapshot().Counters["dfa_rewalk_cycles_total"]; n == 0 {
			t.Fatal("the walker re-walked no cycle of the dot-star case")
		}
		return
	}
	t.Fatal("no dot-star case among the spine's")
}

// The class table of the benchmark's two DFA-tier families at the design
// point (4-bit × 4), on the spine's cases of them: Hamming's sub-symbols
// have 3 and 5 classes a byte, 15 ≤ 16, and its DFAs step bytes; Snort's
// 7 and 16, 112, and its DFAs step sub-symbols.
func TestWorkloadClasses(t *testing.T) {
	want := map[string]struct {
		counts []int
		step   int
	}{
		"Hamming 4-bit x 4": {[]int{3, 5, 3, 5}, 2},
		"Snort 4-bit x 4":   {[]int{7, 16, 7, 16}, 1},
	}
	seen := 0
	for _, c := range simtest.Cases(t) {
		w, ok := want[c.Name]
		if !ok {
			continue
		}
		seen++
		cl := dfa.ClassesOf(c.NFA)
		if !slices.Equal(cl.Counts(), w.counts) || cl.Step() != w.step {
			t.Errorf("%s: classes %v, step %d; want %v, step %d", c.Name, cl.Counts(), cl.Step(), w.counts, w.step)
		}
	}
	if seen == 0 {
		t.Fatal("no Hamming or Snort case among the spine's")
	}
}
