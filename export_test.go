package impala

import (
	"sync/atomic"
	"testing"

	"impala/internal/arch"
	"impala/internal/automata"
	"impala/internal/dfa"
	"impala/internal/place"
	"impala/internal/shard"
)

// countCapsuleBuilds counts the capsule machines Run builds from now until
// the test ends.
func countCapsuleBuilds(t testing.TB) *atomic.Int64 {
	var n atomic.Int64
	build := buildCapsule
	buildCapsule = func(nfa *automata.NFA, pl *place.Placement) (*arch.Machine, error) {
		n.Add(1)
		return build(nfa, pl)
	}
	t.Cleanup(func() { buildCapsule = build })
	return &n
}

// WalkedDFAs returns the DFAs m's serving form walks: a tiered form's union
// DFA, or a sharded form's walker's, in shard order; nil for a form
// that walks none.
func (m *Machine) WalkedDFAs() []*dfa.DFA {
	switch s := m.serving.(type) {
	case *dfa.Tiered:
		return []*dfa.DFA{s.DFA()}
	case *shard.Sharded:
		if l := s.Lane(); l.New != nil {
			if c, ok := l.New().(*dfa.Core); ok {
				return c.DFAs()
			}
		}
	}
	return nil
}
