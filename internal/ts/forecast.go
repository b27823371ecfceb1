package ts

import (
	"errors"
	"math"
)

// ErrTooShort is returned by forecasters when the series has too few points
// to fit the model.
var ErrTooShort = errors.New("ts: series too short for this model")

// ARForecast fits an AR(p) model on the mean-removed series via Yule-Walker
// (Levinson-Durbin) and forecasts steps future points.
func (s *Series) ARForecast(p, steps int, step Time) (*Series, error) {
	if p < 1 || s.Len() < p+2 {
		return nil, ErrTooShort
	}
	mu := s.Mean()
	x := make([]float64, s.Len())
	for i, v := range s.vals {
		x[i] = v - mu
	}
	// Autocovariance up to lag p.
	r := make([]float64, p+1)
	for lag := 0; lag <= p; lag++ {
		var acc float64
		for i := lag; i < len(x); i++ {
			acc += x[i] * x[i-lag]
		}
		r[lag] = acc / float64(len(x))
	}
	if r[0] == 0 {
		// Constant series: forecast the constant.
		out := New(s.name + "_ar")
		t := s.End()
		for i := 0; i < steps; i++ {
			t += step
			out.MustAppend(t, mu)
		}
		return out, nil
	}
	phi, err := levinsonDurbin(r, p)
	if err != nil {
		return nil, err
	}
	hist := append([]float64(nil), x...)
	out := New(s.name + "_ar")
	t := s.End()
	for i := 0; i < steps; i++ {
		var pred float64
		for j := 0; j < p; j++ {
			pred += phi[j] * hist[len(hist)-1-j]
		}
		hist = append(hist, pred)
		t += step
		out.MustAppend(t, pred+mu)
	}
	return out, nil
}

// levinsonDurbin solves the Yule-Walker equations for AR coefficients
// phi[0..p-1] from autocovariances r[0..p].
func levinsonDurbin(r []float64, p int) ([]float64, error) {
	phi := make([]float64, p)
	prev := make([]float64, p)
	e := r[0]
	for k := 1; k <= p; k++ {
		acc := r[k]
		for j := 1; j < k; j++ {
			acc -= prev[j-1] * r[k-j]
		}
		if e == 0 {
			return nil, errors.New("ts: Yule-Walker system is singular")
		}
		kappa := acc / e
		phi[k-1] = kappa
		for j := 1; j < k; j++ {
			phi[j-1] = prev[j-1] - kappa*prev[k-j-1]
		}
		e *= 1 - kappa*kappa
		copy(prev, phi[:k])
	}
	for _, c := range phi {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return nil, errors.New("ts: AR fit diverged")
		}
	}
	return phi, nil
}

// MAE returns the mean absolute error between a forecast and actual values
// at matching timestamps; timestamps present in only one series are ignored.
// NaN is returned when there is no overlap.
func MAE(forecast, actual *Series) float64 {
	var acc float64
	var n int
	for i := 0; i < forecast.Len(); i++ {
		if v, ok := actual.Lookup(forecast.TimeAt(i)); ok {
			acc += math.Abs(forecast.ValueAt(i) - v)
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return acc / float64(n)
}
