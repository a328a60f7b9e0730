// Package queueing is the queueing-theory substrate for dcmodel.
//
// It provides the analytic models (M/M/1, M/M/c, M/G/1, open Jackson
// networks) and the discrete-event multi-station simulator that the
// in-depth modeling literature builds on (Liu et al.'s 3-tier model,
// Meisner et al.'s SQS), and a PI admission controller (Kamra et al.'s
// Yaksha).
// KOOZA's network model reuses the same machinery for its arrival-rate
// queue.
package queueing

import (
	"errors"
	"fmt"
	"math"

	"dcmodel/internal/errs"
)

// ErrUnstable is returned when a queueing configuration has utilization
// >= 1 and therefore no steady state. It is distinct from ErrBadConfig:
// an unstable network is a meaningful analytical answer ("this load does
// not fit this capacity"), not a malformed input.
var ErrUnstable = errors.New("queueing: utilization >= 1, no steady state")

// validNum reports whether v is a finite number — solver inputs must be
// real so NaN/Inf can never leak into results (or JSON responses) as
// silently poisoned arithmetic.
func validNum(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// badConfig wraps a validation failure in the shared errs.ErrBadConfig
// sentinel so callers (CLI tools, the daemon) branch with errors.Is.
func badConfig(format string, args ...any) error {
	return fmt.Errorf("queueing: "+format+": %w", append(args, errs.ErrBadConfig)...)
}

// MM1 is the M/M/1 queue: Poisson arrivals at rate Lambda, exponential
// service at rate Mu, one server.
type MM1 struct {
	Lambda, Mu float64
}

// NewMM1 validates and returns an M/M/1 queue. It fails when the queue is
// unstable (Lambda >= Mu) or parameters are non-positive.
func NewMM1(lambda, mu float64) (MM1, error) {
	if !validNum(lambda, mu) || lambda <= 0 || mu <= 0 {
		return MM1{}, badConfig("rates must be positive finite numbers, got lambda=%g mu=%g", lambda, mu)
	}
	if lambda >= mu {
		return MM1{}, ErrUnstable
	}
	return MM1{Lambda: lambda, Mu: mu}, nil
}

// Utilization returns rho = Lambda/Mu.
func (q MM1) Utilization() float64 { return q.Lambda / q.Mu }

// MeanJobs returns the mean number of jobs in the system, rho/(1-rho).
func (q MM1) MeanJobs() float64 {
	rho := q.Utilization()
	return rho / (1 - rho)
}

// MeanResponse returns the mean sojourn (response) time, 1/(Mu-Lambda).
func (q MM1) MeanResponse() float64 { return 1 / (q.Mu - q.Lambda) }

// MeanWait returns the mean waiting time in queue, rho/(Mu-Lambda).
func (q MM1) MeanWait() float64 { return q.Utilization() / (q.Mu - q.Lambda) }

// ProbN returns the steady-state probability of n jobs in the system.
func (q MM1) ProbN(n int) float64 {
	if n < 0 {
		return 0
	}
	rho := q.Utilization()
	return (1 - rho) * math.Pow(rho, float64(n))
}

// ResponseQuantile returns the p-quantile of the (exponential) response
// time distribution.
func (q MM1) ResponseQuantile(p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return math.Inf(1)
	}
	return -math.Log(1-p) * q.MeanResponse()
}

// MMc is the M/M/c queue: Poisson arrivals, exponential service, c servers.
type MMc struct {
	Lambda, Mu float64
	C          int
}

// NewMMc validates and returns an M/M/c queue.
func NewMMc(lambda, mu float64, c int) (MMc, error) {
	if !validNum(lambda, mu) || lambda <= 0 || mu <= 0 || c < 1 {
		return MMc{}, badConfig("invalid M/M/c parameters lambda=%g mu=%g c=%d", lambda, mu, c)
	}
	if lambda >= mu*float64(c) {
		return MMc{}, ErrUnstable
	}
	return MMc{Lambda: lambda, Mu: mu, C: c}, nil
}

// Utilization returns per-server utilization rho = Lambda/(c*Mu).
func (q MMc) Utilization() float64 { return q.Lambda / (q.Mu * float64(q.C)) }

// ErlangC returns the probability an arriving job must wait (all servers
// busy), the Erlang-C formula.
func (q MMc) ErlangC() float64 {
	c := q.C
	a := q.Lambda / q.Mu // offered load
	rho := q.Utilization()
	// Compute iteratively to avoid factorial overflow.
	term := 1.0 // a^0/0!
	sum := term
	for k := 1; k < c; k++ {
		term *= a / float64(k)
		sum += term
	}
	term *= a / float64(c) // a^c/c!
	top := term / (1 - rho)
	return top / (sum + top)
}

// MeanWait returns the mean waiting time in queue.
func (q MMc) MeanWait() float64 {
	return q.ErlangC() / (float64(q.C)*q.Mu - q.Lambda)
}

// MeanResponse returns the mean response time.
func (q MMc) MeanResponse() float64 { return q.MeanWait() + 1/q.Mu }

// MeanJobs returns the mean number of jobs in the system (Little's law).
func (q MMc) MeanJobs() float64 { return q.Lambda * q.MeanResponse() }

// MG1 is the M/G/1 queue: Poisson arrivals at rate Lambda and a general
// service distribution with the given mean and variance
// (Pollaczek-Khinchine).
type MG1 struct {
	Lambda, MeanService, VarService float64
}

// NewMG1 validates and returns an M/G/1 queue.
func NewMG1(lambda, meanService, varService float64) (MG1, error) {
	if !validNum(lambda, meanService, varService) || lambda <= 0 || meanService <= 0 || varService < 0 {
		return MG1{}, badConfig("invalid M/G/1 parameters lambda=%g mean=%g var=%g", lambda, meanService, varService)
	}
	if lambda*meanService >= 1 {
		return MG1{}, ErrUnstable
	}
	return MG1{Lambda: lambda, MeanService: meanService, VarService: varService}, nil
}

// Utilization returns rho = Lambda * E[S].
func (q MG1) Utilization() float64 { return q.Lambda * q.MeanService }

// MeanWait returns the Pollaczek-Khinchine mean waiting time
// lambda * E[S^2] / (2 (1 - rho)).
func (q MG1) MeanWait() float64 {
	es2 := q.VarService + q.MeanService*q.MeanService
	return q.Lambda * es2 / (2 * (1 - q.Utilization()))
}

// MeanResponse returns the mean response time.
func (q MG1) MeanResponse() float64 { return q.MeanWait() + q.MeanService }

// MeanJobs returns the mean number of jobs in the system (Little's law).
func (q MG1) MeanJobs() float64 { return q.Lambda * q.MeanResponse() }

// GG1 is the G/G/1 queue approximated by Kingman's formula: general
// interarrival and service distributions summarized by their means and
// squared coefficients of variation.
type GG1 struct {
	// Lambda is the arrival rate; SCVArrival the interarrival SCV.
	Lambda, SCVArrival float64
	// MeanService is the mean service time; SCVService its SCV.
	MeanService, SCVService float64
}

// NewGG1 validates and returns a G/G/1 queue.
func NewGG1(lambda, scvA, meanS, scvS float64) (GG1, error) {
	if !validNum(lambda, scvA, meanS, scvS) || lambda <= 0 || meanS <= 0 || scvA < 0 || scvS < 0 {
		return GG1{}, badConfig("invalid G/G/1 parameters lambda=%g scvA=%g mean=%g scvS=%g", lambda, scvA, meanS, scvS)
	}
	if lambda*meanS >= 1 {
		return GG1{}, ErrUnstable
	}
	return GG1{Lambda: lambda, SCVArrival: scvA, MeanService: meanS, SCVService: scvS}, nil
}

// Utilization returns rho = Lambda * E[S].
func (q GG1) Utilization() float64 { return q.Lambda * q.MeanService }

// MeanWait returns Kingman's approximation
// Wq ~ (rho/(1-rho)) * ((Ca^2 + Cs^2)/2) * E[S].
func (q GG1) MeanWait() float64 {
	rho := q.Utilization()
	return rho / (1 - rho) * (q.SCVArrival + q.SCVService) / 2 * q.MeanService
}

// MeanResponse returns the approximate mean response time.
func (q GG1) MeanResponse() float64 { return q.MeanWait() + q.MeanService }
