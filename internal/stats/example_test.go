package stats_test

import (
	"fmt"

	"freshsource/internal/stats"
)

// The censored exponential MLE of Eq. 7 of the paper: total observed
// lifespan divided by the number of observed disappearances.
func ExampleFitExponential() {
	obs := []stats.Duration{
		{Value: 10},                 // disappeared after 10 ticks
		{Value: 30},                 // disappeared after 30 ticks
		{Value: 40, Censored: true}, // still alive when the window closed
	}
	m, _ := stats.FitExponential(obs)
	fmt.Printf("rate %.3f mean %.0f\n", m.Rate, m.Mean())
	// Output: rate 0.025 mean 40
}

// Kaplan–Meier learns a capture-effectiveness distribution from exact and
// right-censored delays (Section 4.1.2 of the paper).
func ExampleNewKaplanMeier() {
	obs := []stats.Duration{
		{Value: 1}, {Value: 2}, {Value: 2}, {Value: 5, Censored: true},
	}
	km, _ := stats.NewKaplanMeier(obs)
	fmt.Printf("G(1)=%.2f G(2)=%.2f plateau=%.2f\n", km.CDF(1), km.CDF(2), km.Plateau())
	// Output: G(1)=0.25 G(2)=0.75 plateau=0.75
}
