package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// p90 needs 100 samples, p50 needs 20. With fewer, the percentile does not
// repeat from run to run and is refused.
const minBeyond = 10

// errTooFewSamples is returned by percentile when the sample count cannot
// support the requested percentile.
var errTooFewSamples = errors.New("too few samples for percentile")

// percentile returns the q-quantile (0 < q < 1) of xs by the nearest-rank
// method, refusing it unless at least minBeyond samples lie beyond it.
func percentile(xs []float64, q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %g outside (0, 1)", q)
	}
	// The 1e-9 keeps q*n that should be whole (0.9*100) from rounding up.
	rank := int(math.Ceil(q*float64(len(xs)) - 1e-9))
	if len(xs)-rank < minBeyond || rank < 1 {
		return 0, fmt.Errorf("p%g of %d samples: %w", 100*q, len(xs), errTooFewSamples)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); it needs no minimum count and returns 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// geomean returns the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// class is one operation class of a workload: its latency limit and the
// outcome of every operation attempted in it.
type class struct {
	name  string
	limit time.Duration // 0: no latency limit, only success counts

	attempted, failed, withinLimit int
	requests                       int64     // trace requests carried by successful operations
	latMS                          []float64 // successful operations only
	failures                       []string  // first few failure messages
}

// recorder collects per-class outcomes plus the load generator's own
// lateness. It is safe for concurrent use.
type recorder struct {
	mu       sync.Mutex
	start    time.Time
	classes  map[string]*class
	order    []string
	lagMS    []float64
	connWait []float64
	samples  []sample
}

// sample is one successful operation, kept for the run's record.
type sample struct {
	Class string  `json:"class"`
	DoneS float64 `json:"done_s"` // when it finished, from the recorder's start
	LatMS float64 `json:"lat_ms"`
}

func newRecorder() *recorder { return &recorder{start: time.Now(), classes: map[string]*class{}} }

// addClass declares a class with its latency limit (0 for none), fixing
// the report order.
func (r *recorder) addClass(name string, limit time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.classes[name]; !ok {
		r.classes[name] = &class{name: name, limit: limit}
		r.order = append(r.order, name)
	}
}

// record books one operation: its latency (from when it was due), the trace
// requests it carried and its error, nil when it succeeded and its output
// passed the check. A failed operation misses its limit by definition.
func (r *recorder) record(name string, lat time.Duration, requests int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.classes[name]
	if !ok {
		c = &class{name: name}
		r.classes[name] = c
		r.order = append(r.order, name)
	}
	c.attempted++
	if err != nil {
		c.failed++
		if len(c.failures) < 5 {
			c.failures = append(c.failures, err.Error())
		}
		return
	}
	c.requests += int64(requests)
	c.latMS = append(c.latMS, ms(lat))
	r.samples = append(r.samples, sample{name, time.Since(r.start).Seconds(), ms(lat)})
	if c.limit == 0 || lat <= c.limit {
		c.withinLimit++
	}
}

// recordGen books the load generator's lateness and connection wait for
// one operation.
func (r *recorder) recordGen(lag, connWait time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lagMS = append(r.lagMS, ms(lag))
	r.connWait = append(r.connWait, ms(connWait))
}

// requestsOf returns the trace requests carried by the class's successful
// operations so far.
func (r *recorder) requestsOf(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.classes[name]; ok {
		return c.requests
	}
	return 0
}

// fail books a failed whole-run check (a count that does not add up) as
// one failed operation of the named class.
func (r *recorder) fail(name string, err error) { r.record(name, 0, 0, err) }

// summary is the per-class digest of a measured phase.
type summary struct {
	samples                        []sample
	attempted, failed, withinLimit int
	requests                       int64
	classes                        []classSummary
	lagP90, connWaitP90            float64
}

type classSummary struct {
	name               string
	n, attempted, fail int
	p50, p90, mean     float64
	limitMS            float64
	failures           []string
}

func (r *recorder) summarize() (summary, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := summary{samples: r.samples}
	for _, name := range r.order {
		c := r.classes[name]
		s.attempted += c.attempted
		s.failed += c.failed
		s.withinLimit += c.withinLimit
		s.requests += c.requests
		cs := classSummary{name: name, n: len(c.latMS), attempted: c.attempted, fail: c.failed,
			limitMS: ms(c.limit), failures: c.failures}
		cs.p50 = median(c.latMS)
		for _, l := range c.latMS {
			cs.mean += l / float64(len(c.latMS))
		}
		var err error
		if cs.p90, err = percentile(c.latMS, 0.9); err != nil {
			return s, fmt.Errorf("class %s: %w", name, err)
		}
		s.classes = append(s.classes, cs)
	}
	if len(r.lagMS) > 0 {
		var err error
		if s.lagP90, err = percentile(r.lagMS, 0.9); err != nil {
			return s, fmt.Errorf("generator lag: %w", err)
		}
		if s.connWaitP90, err = percentile(r.connWait, 0.9); err != nil {
			return s, fmt.Errorf("connection wait: %w", err)
		}
	}
	return s, nil
}

// classP50 is the geometric mean, over the classes, of each class's median
// latency: one number per workload that moves when any class moves,
// whatever the classes' sizes.
func (s summary) classP50() float64 {
	var xs []float64
	for _, c := range s.classes {
		xs = append(xs, c.p50)
	}
	return geomean(xs)
}

// okFrac is the share of attempted operations that succeeded within their
// class limit.
func (s summary) okFrac() float64 {
	if s.attempted == 0 {
		return 0
	}
	return float64(s.withinLimit) / float64(s.attempted)
}

func (s summary) class(name string) (classSummary, bool) {
	for _, c := range s.classes {
		if c.name == name {
			return c, true
		}
	}
	return classSummary{}, false
}
