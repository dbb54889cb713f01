package automata

import (
	"encoding/json"
	"testing"

	"impala/internal/bitvec"
)

// buildTestNFA builds the paper's Figure 1 example: homogeneous automaton
// for (A|C)*(C|T)(G)+ over alphabet {A,T,C,G}.
func buildFig1(t *testing.T) *NFA {
	t.Helper()
	n := New(8, 1)
	ste0 := n.AddState(ByteMatchState(bitvec.ByteOf('A').Union(bitvec.ByteOf('C')), StartAllInput, false))
	ste1 := n.AddState(ByteMatchState(bitvec.ByteOf('C').Union(bitvec.ByteOf('T')), StartAllInput, false))
	ste2 := n.AddState(ByteMatchState(bitvec.ByteOf('C').Union(bitvec.ByteOf('T')), StartAllInput, false))
	_ = ste2
	ste3 := n.AddState(ByteMatchState(bitvec.ByteOf('G'), StartNone, true))
	n.AddEdge(ste0, ste0)
	n.AddEdge(ste0, ste1)
	n.AddEdge(ste1, ste3)
	n.AddEdge(ste2, ste3)
	n.AddEdge(ste3, ste3)
	if err := n.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return n
}

func TestNFABasics(t *testing.T) {
	n := buildFig1(t)
	if n.NumStates() != 4 || n.NumTransitions() != 5 {
		t.Fatalf("states=%d transitions=%d", n.NumStates(), n.NumTransitions())
	}
	if n.BitsPerCycle() != 8 {
		t.Fatal("BitsPerCycle wrong")
	}
	if got := len(n.StartStates()); got != 3 {
		t.Fatalf("StartStates = %d", got)
	}
	if got := len(n.ReportStates()); got != 1 {
		t.Fatalf("ReportStates = %d", got)
	}
}

func TestNFAClone(t *testing.T) {
	n := buildFig1(t)
	c := n.Clone()
	c.AddEdge(0, 3)
	c.States[0].Match[0][0] = bitvec.ByteOf('Z')
	if n.NumTransitions() != 5 {
		t.Fatal("Clone shares edges")
	}
	if !n.States[0].Match.Has([]byte{'A'}) {
		t.Fatal("Clone shares match sets")
	}
}

func TestNFADedupEdges(t *testing.T) {
	n := New(8, 1)
	a := n.AddState(ByteMatchState(bitvec.ByteOf('x'), StartAllInput, false))
	b := n.AddState(ByteMatchState(bitvec.ByteOf('y'), StartNone, true))
	n.AddEdge(a, b)
	n.AddEdge(a, b)
	n.AddEdge(a, b)
	n.DedupEdges()
	if n.NumTransitions() != 1 {
		t.Fatalf("transitions = %d after dedup", n.NumTransitions())
	}
}

func TestNFAInEdges(t *testing.T) {
	n := buildFig1(t)
	in := n.InEdges()
	if len(in[3]) != 3 { // from ste1, ste2, self
		t.Fatalf("in[3] = %v", in[3])
	}
	if len(in[1]) != 1 || in[1][0] != 0 {
		t.Fatalf("in[1] = %v", in[1])
	}
}

func TestNFAValidateRejects(t *testing.T) {
	n := New(8, 1)
	id := n.AddState(ByteMatchState(bitvec.ByteOf('x'), StartAllInput, true))
	n.States[id].Out = append(n.States[id].Out, 99)
	if err := n.Validate(); err == nil {
		t.Fatal("out-of-range edge accepted")
	}

	n2 := New(8, 1)
	n2.AddState(State{Match: MatchSet{}, Start: StartAllInput, ReportOffset: 1})
	if err := n2.Validate(); err == nil {
		t.Fatal("empty match set accepted")
	}

	n3 := New(4, 2)
	n3.AddState(State{Match: MatchSet{FullRect(2, 8)}, ReportOffset: 1})
	if err := n3.Validate(); err == nil {
		t.Fatal("8-bit symbols in 4-bit automaton accepted")
	}

	n4 := New(8, 1)
	s := ByteMatchState(bitvec.ByteOf('x'), StartAllInput, true)
	id4 := n4.AddState(s)
	n4.States[id4].ReportOffset = 5
	if err := n4.Validate(); err == nil {
		t.Fatal("bad report offset accepted")
	}
}

func TestNewPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { New(5, 1) },
		func() { New(8, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad geometry accepted")
				}
			}()
			fn()
		}()
	}
}

func TestConnectedComponents(t *testing.T) {
	n := New(8, 1)
	n.AddLiteral("abc", StartAllInput, 1)
	n.AddLiteral("xy", StartAllInput, 2)
	n.AddLiteral("q", StartAllInput, 3)
	ccs := n.ConnectedComponents()
	if len(ccs) != 3 {
		t.Fatalf("CCs = %d", len(ccs))
	}
	if len(ccs[0]) != 3 || len(ccs[1]) != 2 || len(ccs[2]) != 1 {
		t.Fatalf("CC sizes = %d,%d,%d", len(ccs[0]), len(ccs[1]), len(ccs[2]))
	}
}

// Induced keeps the listed states in list order, every edge among them
// (self-loops and back edges included) and nothing else, shares the match
// sets with the source, and leaves the source untouched.
func TestInduced(t *testing.T) {
	n := New(8, 1)
	n.AddLiteral("abc", StartAllInput, 1) // states 0-2
	ring := n.AddRing([]byte("xyz"), 2)   // states 3-5, 5 -> 3
	n.AddEdge(ring[1], ring[1])           // a self-loop
	n.AddLiteral("q", StartOfData, 3)     // state 6
	before := n.Clone()

	// The ring and "q", listed out of ID order: result IDs follow the list.
	ids := []StateID{6, ring[2], ring[0], ring[1]}
	sub := n.Induced(ids)
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	if sub.Bits != n.Bits || sub.Stride != n.Stride || sub.NumStates() != len(ids) {
		t.Fatalf("sub is %d/%d with %d states", sub.Bits, sub.Stride, sub.NumStates())
	}
	for i, id := range ids {
		got, want := sub.States[i], n.States[id]
		if got.Start != want.Start || got.Report != want.Report || got.ReportCode != want.ReportCode ||
			got.ReportOffset != want.ReportOffset {
			t.Fatalf("state %d (orig %d) metadata differs: %+v vs %+v", i, id, got, want)
		}
		if &got.Match[0][0] != &want.Match[0][0] {
			t.Fatalf("state %d (orig %d): match set copied, want aliased", i, id)
		}
	}
	// Edges, in the source's out-edge order: orig 3->4, 4->5, 4->4, 5->3
	// become 2->3, 3->1, 3->3, 1->2.
	wantOut := [][]StateID{{}, {2}, {3}, {1, 3}}
	for i, want := range wantOut {
		got := sub.States[i].Out
		if len(got) != len(want) {
			t.Fatalf("state %d out-edges %v, want %v", i, got, want)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("state %d out-edges %v, want %v", i, got, want)
			}
		}
	}
	if sub.NumTransitions() != 4 {
		t.Fatalf("sub has %d transitions, want 4", sub.NumTransitions())
	}
	if n.NumTransitions() != before.NumTransitions() || n.NumStates() != before.NumStates() {
		t.Fatal("Induced modified its source")
	}
	if empty := n.Induced(nil); empty.NumStates() != 0 || empty.Bits != 8 {
		t.Fatalf("Induced(nil) = %d states, %d bits", empty.NumStates(), empty.Bits)
	}
}

func TestBFSOrder(t *testing.T) {
	n := buildFig1(t)
	ccs := n.ConnectedComponents()
	if len(ccs) != 1 {
		t.Fatalf("CCs = %d", len(ccs))
	}
	order := n.BFSOrder(ccs[0])
	if len(order) != 4 {
		t.Fatalf("BFS order covers %d states", len(order))
	}
	seen := map[StateID]bool{}
	for _, id := range order {
		if seen[id] {
			t.Fatal("BFS repeats a state")
		}
		seen[id] = true
	}
	// Starts first.
	if n.States[order[0]].Start == StartNone {
		t.Fatal("BFS should begin at a start state")
	}
}

func TestComputeStats(t *testing.T) {
	n := buildFig1(t)
	st := n.ComputeStats()
	if st.States != 4 || st.Transitions != 5 || st.NumCCs != 1 || st.LargestCC != 4 {
		t.Fatalf("stats = %+v", st)
	}
	if st.AvgDegree != 2.5 {
		t.Fatalf("AvgDegree = %v", st.AvgDegree)
	}
	// ste3 matches a single symbol; others match 2.
	if st.MatchSymbolHistogram[0] != 1 || st.MatchSymbolHistogram[1] != 3 {
		t.Fatalf("histogram = %v", st.MatchSymbolHistogram)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	n := buildFig1(t)
	n.States[3].ReportCode = 42
	data, err := json.Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	var back NFA
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.NumStates() != n.NumStates() || back.NumTransitions() != n.NumTransitions() {
		t.Fatal("round trip changed shape")
	}
	for i := range n.States {
		if !back.States[i].Match.Equal(n.States[i].Match) {
			t.Fatalf("state %d match set changed", i)
		}
		if back.States[i].Start != n.States[i].Start ||
			back.States[i].Report != n.States[i].Report ||
			back.States[i].ReportCode != n.States[i].ReportCode {
			t.Fatalf("state %d attributes changed", i)
		}
	}
}

func TestJSONRejectsBadStart(t *testing.T) {
	var n NFA
	err := json.Unmarshal([]byte(`{"bits":8,"stride":1,"states":[{"match":[[[97]]],"start":"bogus"}]}`), &n)
	if err == nil {
		t.Fatal("bad start kind accepted")
	}
}

func TestStartKindString(t *testing.T) {
	if StartNone.String() != "none" || StartAllInput.String() != "all-input" ||
		StartOfData.String() != "start-of-data" || StartKind(9).String() == "" {
		t.Fatal("StartKind.String wrong")
	}
}

func TestAddRing(t *testing.T) {
	n := New(8, 1)
	ids := n.AddRing([]byte("abc"), 7)
	if len(ids) != 3 || n.NumTransitions() != 3 {
		t.Fatal("ring shape wrong")
	}
	if !n.States[ids[2]].Report || n.States[ids[2]].ReportCode != 7 {
		t.Fatal("ring report wrong")
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
}
