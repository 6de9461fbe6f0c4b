package stats

import (
	"testing"
)

// FuzzKaplanMeier decodes arbitrary byte strings into censored duration
// samples and checks the estimator's invariants never break.
func FuzzKaplanMeier(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4})
	f.Add([]byte{0})
	f.Add([]byte{255, 0, 255, 0, 17, 17})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		obs := make([]Duration, 0, len(data))
		for i, b := range data {
			obs = append(obs, Duration{
				Value:    float64(b%64) + float64(i%3)*0.5,
				Censored: b&0x80 != 0,
			})
		}
		km, err := NewKaplanMeier(obs)
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		prev := -1.0
		for tau := -1.0; tau < 70; tau += 1.0 {
			c := km.CDF(tau)
			if c < 0 || c > 1 {
				t.Fatalf("CDF(%v) = %v outside [0,1]", tau, c)
			}
			if c < prev {
				t.Fatalf("CDF decreased at %v", tau)
			}
			prev = c
		}
		if p := km.Plateau(); p < 0 || p > 1 {
			t.Fatalf("plateau %v", p)
		}
	})
}

// FuzzFitExponential checks the censored MLE never panics or returns
// non-positive rates on valid input.
func FuzzFitExponential(f *testing.F) {
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{0, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		obs := make([]Duration, 0, len(data))
		hasEvent := false
		var total float64
		for _, b := range data {
			d := Duration{Value: float64(b % 100), Censored: b&0x80 != 0}
			obs = append(obs, d)
			if !d.Censored {
				hasEvent = true
			}
			total += d.Value
		}
		m, err := FitExponential(obs)
		if err != nil {
			if len(obs) > 0 && hasEvent && total > 0 {
				t.Fatalf("unexpected error with valid data: %v", err)
			}
			return
		}
		if m.Rate <= 0 {
			t.Fatalf("non-positive rate %v", m.Rate)
		}
	})
}
