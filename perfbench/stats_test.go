package main

import (
	"errors"
	"math/rand"
	"testing"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func samples(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the helper must sort
	}
	return xs
}

func TestPercentileRefusesTooFewSamples(t *testing.T) {
	for _, n := range []int{0, 1, 50, 99} {
		if _, err := percentile(samples(n), 0.9); !errors.Is(err, errTooFewSamples) {
			t.Errorf("p90 of %d samples: err %v, want errTooFewSamples", n, err)
		}
	}
	if _, err := percentile(samples(19), 0.5); !errors.Is(err, errTooFewSamples) {
		t.Errorf("p50 of 19 samples: err %v, want errTooFewSamples", err)
	}
	got, err := percentile(samples(100), 0.9)
	if err != nil || got != 90 {
		t.Errorf("p90 of 1..100 = %g, %v; want 90", got, err)
	}
	got, err = percentile(samples(120), 0.9)
	if err != nil || got != 108 {
		t.Errorf("p90 of 1..120 = %g, %v; want 108", got, err)
	}
}

func TestMedianAndGeomean(t *testing.T) {
	if m := median(samples(4)); m != 2.5 {
		t.Errorf("median of 1..4 = %g", m)
	}
	if m := median(samples(5)); m != 3 {
		t.Errorf("median of 1..5 = %g", m)
	}
	if g := geomean([]float64{2, 8}); g < 3.999 || g > 4.001 {
		t.Errorf("geomean(2, 8) = %g", g)
	}
}
