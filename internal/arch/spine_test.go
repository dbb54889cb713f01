package arch_test

import (
	"testing"

	"impala/internal/arch"
	"impala/internal/core"
	"impala/internal/place"
	"impala/internal/sim"
	"impala/internal/sim/simtest"
)

// This package's row of the differential spine (simtest.Spine): a session
// over the capsule-level machine configured from the case's placement, on
// every case the compiler emitted — which must be capsule-legal and routed —
// and every random one that happens to be. Its switch activity, the
// energy model's input, must not depend on the chunking either: each stream
// ends with the activity of the one-shot Machine.Run.
func TestSpine(t *testing.T) {
	simtest.Spine(t, simtest.Row{Name: "capsule machine", Build: func(t testing.TB, c *simtest.Case) (simtest.Form, bool) {
		legal := core.CapsuleLegal(c.NFA)
		if !legal && c.Source == nil {
			return simtest.Form{}, false
		}
		pl, err := place.Place(c.NFA, place.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case !legal:
			t.Fatalf("%s: the compiler's output is not capsule-legal", c.Name)
		case !pl.Valid() && c.Source != nil:
			t.Fatalf("%s: %d transitions left unrouted", c.Name, pl.TotalUncovered)
		case !pl.Valid():
			return simtest.Form{}, false
		}
		m, err := arch.Build(c.NFA, pl)
		if err != nil {
			t.Fatal(err)
		}
		_, want := m.Run(c.Input)
		return simtest.Form{Open: func(sink sim.ReportSink) simtest.Stream {
			return activityCheck{m.NewSession(sink), func(s *arch.Session) {
				if got := s.Activity(); got != want {
					t.Fatalf("capsule machine on %s: stream activity %+v, Machine.Run %+v", c.Name, got, want)
				}
			}}
		}}, true
	}})
}

// activityCheck is a machine session that checks its activity after Flush.
type activityCheck struct {
	*arch.Session
	check func(*arch.Session)
}

func (s activityCheck) Flush() {
	s.Session.Flush()
	s.check(s.Session)
}
