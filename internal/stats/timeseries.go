package stats

import (
	"math"
)

// Time-series analysis for arrival processes: burstiness indices and
// self-similarity (Hurst exponent) estimation. These are the request-stream
// characterizations that Feitelson, Li and Sengupta apply: self-similarity,
// burstiness and long-range dependence.

// IndexOfDispersion returns the index of dispersion for counts (IDC) of an
// event time series: the variance-to-mean ratio of event counts in windows
// of the given length. IDC = 1 for a Poisson process; growing IDC with
// window size indicates burstiness and long-range dependence.
//
// arrivals must be ascending event timestamps.
func IndexOfDispersion(arrivals []float64, window float64) float64 {
	counts := CountsInWindows(arrivals, window)
	if len(counts) < 2 {
		return math.NaN()
	}
	m := Mean(counts)
	if m == 0 {
		return math.NaN()
	}
	return PopVariance(counts) / m
}

// CountsInWindows bins ascending event timestamps into consecutive windows
// of the given length and returns the per-window counts.
func CountsInWindows(arrivals []float64, window float64) []float64 {
	if len(arrivals) == 0 || window <= 0 {
		return nil
	}
	start := arrivals[0]
	end := arrivals[len(arrivals)-1]
	n := int((end-start)/window) + 1
	counts := make([]float64, n)
	for _, t := range arrivals {
		idx := int((t - start) / window)
		if idx >= n {
			idx = n - 1
		}
		counts[idx]++
	}
	return counts
}

// PeakToMean returns the peak-to-mean ratio of event counts in windows of
// the given length, a simple burstiness indicator.
func PeakToMean(arrivals []float64, window float64) float64 {
	counts := CountsInWindows(arrivals, window)
	if len(counts) == 0 {
		return math.NaN()
	}
	m := Mean(counts)
	if m == 0 {
		return math.NaN()
	}
	return Max(counts) / m
}

// HurstRS estimates the Hurst exponent of the series xs by rescaled-range
// (R/S) analysis. H = 0.5 for short-range-dependent series; H in (0.5, 1)
// indicates self-similarity / long-range dependence.
//
// The series is divided into blocks at logarithmically spaced sizes; within
// each block the rescaled range R/S is computed, and H is the slope of
// log(R/S) against log(block size).
func HurstRS(xs []float64) (float64, error) {
	n := len(xs)
	if n < 32 {
		return 0, ErrShortSample
	}
	var (
		logSizes []float64
		logRS    []float64
	)
	for size := 8; size <= n/4; size = int(float64(size)*1.5) + 1 {
		blocks := n / size
		var rsSum float64
		var rsCount int
		for b := 0; b < blocks; b++ {
			block := xs[b*size : (b+1)*size]
			rs := rescaledRange(block)
			if !math.IsNaN(rs) && rs > 0 {
				rsSum += rs
				rsCount++
			}
		}
		if rsCount == 0 {
			continue
		}
		logSizes = append(logSizes, math.Log(float64(size)))
		logRS = append(logRS, math.Log(rsSum/float64(rsCount)))
	}
	if len(logSizes) < 3 {
		return 0, ErrShortSample
	}
	slope, _ := olsSlope(logSizes, logRS)
	return slope, nil
}

func rescaledRange(block []float64) float64 {
	m := Mean(block)
	var (
		cum, minCum, maxCum float64
	)
	for _, x := range block {
		cum += x - m
		if cum < minCum {
			minCum = cum
		}
		if cum > maxCum {
			maxCum = cum
		}
	}
	r := maxCum - minCum
	s := math.Sqrt(PopVariance(block))
	if s == 0 {
		return math.NaN()
	}
	return r / s
}

// HurstAggVar estimates the Hurst exponent by the aggregate-variance method:
// the variance of the m-aggregated series scales as m^(2H-2).
func HurstAggVar(xs []float64) (float64, error) {
	n := len(xs)
	if n < 32 {
		return 0, ErrShortSample
	}
	var logM, logV []float64
	for m := 1; m <= n/8; m = int(float64(m)*1.7) + 1 {
		agg := aggregate(xs, m)
		if len(agg) < 4 {
			break
		}
		v := PopVariance(agg)
		if v <= 0 {
			continue
		}
		logM = append(logM, math.Log(float64(m)))
		logV = append(logV, math.Log(v))
	}
	if len(logM) < 3 {
		return 0, ErrShortSample
	}
	slope, _ := olsSlope(logM, logV)
	return 1 + slope/2, nil
}

// aggregate averages xs over consecutive blocks of length m.
func aggregate(xs []float64, m int) []float64 {
	if m <= 1 {
		out := make([]float64, len(xs))
		copy(out, xs)
		return out
	}
	n := len(xs) / m
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = Mean(xs[i*m : (i+1)*m])
	}
	return out
}

// olsSlope returns the ordinary-least-squares slope and intercept of y on x.
func olsSlope(x, y []float64) (slope, intercept float64) {
	mx, my := Mean(x), Mean(y)
	var num, den float64
	for i := range x {
		num += (x[i] - mx) * (y[i] - my)
		den += (x[i] - mx) * (x[i] - mx)
	}
	if den == 0 {
		return 0, my
	}
	slope = num / den
	return slope, my - slope*mx
}

// SelfSimilarity summarizes the self-similarity diagnostics of an arrival
// time series: both Hurst estimators plus the IDC at two window scales.
type SelfSimilarity struct {
	HurstRS     float64
	HurstAggVar float64
	IDCShort    float64
	IDCLong     float64
	PeakToMean  float64
}

// AnalyzeSelfSimilarity computes SelfSimilarity for ascending arrival
// timestamps using the given base window; the long window is 16x the base.
func AnalyzeSelfSimilarity(arrivals []float64, window float64) (SelfSimilarity, error) {
	counts := CountsInWindows(arrivals, window)
	if len(counts) < 32 {
		return SelfSimilarity{}, ErrShortSample
	}
	hrs, err := HurstRS(counts)
	if err != nil {
		return SelfSimilarity{}, err
	}
	hav, err := HurstAggVar(counts)
	if err != nil {
		return SelfSimilarity{}, err
	}
	return SelfSimilarity{
		HurstRS:     hrs,
		HurstAggVar: hav,
		IDCShort:    IndexOfDispersion(arrivals, window),
		IDCLong:     IndexOfDispersion(arrivals, window*16),
		PeakToMean:  PeakToMean(arrivals, window),
	}, nil
}
