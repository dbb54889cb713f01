package impala

import (
	"sync/atomic"
	"testing"

	"impala/internal/arch"
	"impala/internal/automata"
	"impala/internal/place"
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
