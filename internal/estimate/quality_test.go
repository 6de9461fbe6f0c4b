package estimate

import (
	"freshsource/internal/timeline"
	"freshsource/internal/world"
)

// Quality is QualityMulti at one tick: the tests' shorthand. Callers
// outside the tests batch their ticks through QualityMulti.
func (e *Estimator) Quality(set []int, t timeline.Tick) QualityEstimate {
	return e.QualityMulti(set, []timeline.Tick{t})[0]
}

// Points returns the estimator's query domain.
func (e *Estimator) Points() []world.DomainPoint { return e.points }
