// Package workload generates synthetic request streams: arrival processes
// (Poisson, Markov-modulated Poisson, self-similar ON/OFF superposition)
// and request-class mixes.
package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"dcmodel/internal/stats"
)

// Arrivals is a stream of request arrival instants.
type Arrivals interface {
	// Times returns the first n arrival times (ascending, starting after
	// zero) using r for randomness.
	Times(n int, r *rand.Rand) []float64
}

// gapProcess adapts an interarrival-gap generator to Arrivals.
func gapTimes(n int, gap func() float64) []float64 {
	out := make([]float64, n)
	var t float64
	for i := range out {
		g := gap()
		if g < 0 {
			g = 0
		}
		t += g
		out[i] = t
	}
	return out
}

// Poisson is a homogeneous Poisson arrival process.
type Poisson struct {
	// Rate is the arrival rate (requests/second).
	Rate float64
}

// Times implements Arrivals.
func (p Poisson) Times(n int, r *rand.Rand) []float64 {
	return gapTimes(n, func() float64 { return r.ExpFloat64() / p.Rate })
}

// Deterministic is a fixed-interval arrival process.
type Deterministic struct {
	// Interval is the constant gap between arrivals.
	Interval float64
}

// Times implements Arrivals.
func (d Deterministic) Times(n int, r *rand.Rand) []float64 {
	return gapTimes(n, func() float64 { return d.Interval })
}

// MMPP2 is a two-state Markov-modulated Poisson process: arrivals are
// Poisson at Rate[state], and the hidden state flips after exponential
// holding times — the standard bursty-traffic model (Sengupta's
// "diverges from Poisson").
type MMPP2 struct {
	// Rate holds the per-state arrival rates.
	Rate [2]float64
	// Hold holds the per-state mean holding times (seconds).
	Hold [2]float64
}

// Validate reports a configuration error, if any.
func (m MMPP2) Validate() error {
	for i := 0; i < 2; i++ {
		if m.Rate[i] <= 0 {
			return fmt.Errorf("workload: mmpp rate[%d] must be positive, got %g", i, m.Rate[i])
		}
		if m.Hold[i] <= 0 {
			return fmt.Errorf("workload: mmpp hold[%d] must be positive, got %g", i, m.Hold[i])
		}
	}
	return nil
}

// Times implements Arrivals.
func (m MMPP2) Times(n int, r *rand.Rand) []float64 {
	out := make([]float64, 0, n)
	state := 0
	var now float64
	stateEnd := r.ExpFloat64() * m.Hold[state]
	for len(out) < n {
		gap := r.ExpFloat64() / m.Rate[state]
		if now+gap < stateEnd {
			now += gap
			out = append(out, now)
			continue
		}
		// State flips before the next arrival; thanks to the memoryless
		// property we can restart the arrival clock in the new state.
		now = stateEnd
		state = 1 - state
		stateEnd = now + r.ExpFloat64()*m.Hold[state]
	}
	return out
}

// MeanRate returns the long-run arrival rate of the MMPP.
func (m MMPP2) MeanRate() float64 {
	// State occupancy is proportional to holding times.
	w0 := m.Hold[0] / (m.Hold[0] + m.Hold[1])
	return w0*m.Rate[0] + (1-w0)*m.Rate[1]
}

// DefaultMMPP returns the canonical bursty two-state MMPP around a nominal
// rate: a 2x-rate ON-ish state held ~1 s and a rate/4 background state held
// ~2 s. This is the single shared parameterization the spec engine, the
// cmd tools and the examples all use, so "mmpp at rate r" means the same
// process everywhere.
func DefaultMMPP(rate float64) MMPP2 {
	return MMPP2{
		Rate: [2]float64{rate * 2, rate / 4},
		Hold: [2]float64{1, 2},
	}
}

// DefaultSelfSimilar returns the canonical self-similar superposition at a
// nominal long-run rate: 16 ON/OFF sources with Pareto(alpha=1.4) periods
// and a 25% duty cycle, so MeanRate() equals rate. The single shared
// parameterization of "selfsimilar at rate r" across the toolkit.
func DefaultSelfSimilar(rate float64) SelfSimilar {
	return SelfSimilar{Sources: 16, OnRate: rate / 4, MeanOn: 1, MeanOff: 3, Alpha: 1.4}
}

// SelfSimilar generates long-range-dependent arrivals by superposing
// ON/OFF sources with heavy-tailed (Pareto) period lengths — the classical
// construction of self-similar network traffic.
type SelfSimilar struct {
	// Sources is the number of independent ON/OFF sources.
	Sources int
	// OnRate is each source's arrival rate while ON (requests/second).
	OnRate float64
	// MeanOn and MeanOff are the mean period lengths (seconds); periods
	// are Pareto with the given Alpha (1 < Alpha < 2 gives LRD).
	MeanOn, MeanOff float64
	// Alpha is the Pareto shape of the period lengths.
	Alpha float64
}

// Validate reports a configuration error, if any.
func (s SelfSimilar) Validate() error {
	switch {
	case s.Sources < 1:
		return fmt.Errorf("workload: self-similar needs >= 1 source, got %d", s.Sources)
	case s.OnRate <= 0:
		return fmt.Errorf("workload: self-similar OnRate must be positive, got %g", s.OnRate)
	case s.MeanOn <= 0 || s.MeanOff <= 0:
		return fmt.Errorf("workload: self-similar period means must be positive")
	case s.Alpha <= 1 || s.Alpha > 3:
		return fmt.Errorf("workload: self-similar Alpha %g outside (1, 3]", s.Alpha)
	}
	return nil
}

// MeanRate returns the long-run aggregate arrival rate.
func (s SelfSimilar) MeanRate() float64 {
	duty := s.MeanOn / (s.MeanOn + s.MeanOff)
	return float64(s.Sources) * s.OnRate * duty
}

// Times implements Arrivals: sources are simulated over a growing horizon
// until n aggregate arrivals exist, then the merged stream is returned.
func (s SelfSimilar) Times(n int, r *rand.Rand) []float64 {
	// Pareto with mean m and shape a has xm = m (a-1)/a.
	onDist := stats.Pareto{Xm: s.MeanOn * (s.Alpha - 1) / s.Alpha, Alpha: s.Alpha}
	offDist := stats.Pareto{Xm: s.MeanOff * (s.Alpha - 1) / s.Alpha, Alpha: s.Alpha}
	horizon := float64(n) / s.MeanRate() * 1.5
	for attempt := 0; attempt < 20; attempt++ {
		var all []float64
		for src := 0; src < s.Sources; src++ {
			var now float64
			// Random initial phase: start OFF with probability of OFF
			// occupancy.
			on := r.Float64() < s.MeanOn/(s.MeanOn+s.MeanOff)
			for now < horizon {
				if on {
					end := now + onDist.Rand(r)
					for {
						gap := r.ExpFloat64() / s.OnRate
						if now+gap >= end || now+gap >= horizon {
							break
						}
						now += gap
						all = append(all, now)
					}
					now = end
				} else {
					now += offDist.Rand(r)
				}
				on = !on
			}
		}
		if len(all) >= n {
			sort.Float64s(all)
			return all[:n]
		}
		horizon *= 2
	}
	// Degenerate parameters: fall back to Poisson at the mean rate so the
	// caller always gets n arrivals.
	return Poisson{Rate: s.MeanRate()}.Times(n, r)
}

// FromTimes wraps precomputed arrival times as an Arrivals source (e.g. a
// trace's arrivals replayed verbatim).
type FromTimes []float64

// Times implements Arrivals; it fails soft by repeating the final gap when
// more arrivals are requested than provided.
func (f FromTimes) Times(n int, r *rand.Rand) []float64 {
	out := make([]float64, n)
	copied := copy(out, f)
	if copied == 0 {
		return out
	}
	var gap float64
	if copied >= 2 {
		gap = out[copied-1] - out[copied-2]
	}
	for i := copied; i < n; i++ {
		out[i] = out[i-1] + gap
	}
	return out
}

// Interarrivals converts arrival times to gaps.
func Interarrivals(times []float64) []float64 {
	if len(times) < 2 {
		return nil
	}
	out := make([]float64, len(times)-1)
	for i := 1; i < len(times); i++ {
		out[i-1] = times[i] - times[i-1]
	}
	return out
}
