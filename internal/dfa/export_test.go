package dfa

import "impala/internal/sim"

// Lane returns the one lane of t's lockstep form.
func (t *Tiered) Lane() sim.Lane { return t.lockstep.Lane() }
