package main

import (
	"context"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"
)

// op is one scheduled request of an open loop.
type op struct {
	class string
	// due is when the request should be sent, from the start of the loop.
	due time.Duration
	// serial ops run one at a time in due order, like a single uploader;
	// the others are sent at their due time whatever is still in flight.
	serial bool
	// send sends the request on client and returns the answer's body.
	send func(ctx context.Context, client *http.Client) ([]byte, error)
	// check checks the answer and returns the trace requests it carried.
	// It runs after the request's latency is taken and its connection is
	// free again.
	check func(body []byte) (int, error)
}

// newClient returns an HTTP client whose pool holds at most conns
// connections per host, all of them kept alive.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// openLoop sends ops on their schedule and books each one in rec. A
// request's latency counts from when it was due, so a stall in the program
// shows in every request that had to wait for it; the time a request waits
// for one of the conns connections is part of its latency, and is also
// booked apart. Checking an answer is not. openLoop returns the time from
// the first due request until every op had finished.
func openLoop(ctx context.Context, client *http.Client, conns int, ops []op, rec *recorder) time.Duration {
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	var serial, free []op
	for _, o := range ops {
		if o.serial {
			serial = append(serial, o)
		} else {
			free = append(free, o)
		}
	}
	slots := make(chan struct{}, conns)
	start := time.Now()
	send := func(o op, lag time.Duration) {
		due := start.Add(o.due)
		t := time.Now()
		slots <- struct{}{}
		wait := time.Since(t)
		body, err := o.send(ctx, client)
		<-slots
		lat := time.Since(due)
		var n int
		if err == nil {
			n, err = o.check(body)
		}
		rec.record(o.class, lat, n, err)
		rec.recordGen(lag, wait)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, o := range serial {
			// A serial op that is already late because the previous one
			// overran is not the generator's lateness: only a timer wake-up
			// counts as lag.
			var lag time.Duration
			if d := time.Until(start.Add(o.due)); d > 0 {
				time.Sleep(d)
				lag = time.Since(start.Add(o.due))
			}
			send(o, lag)
		}
	}()
	for _, o := range free {
		if d := time.Until(start.Add(o.due)); d > 0 {
			time.Sleep(d)
		}
		lag := time.Since(start.Add(o.due))
		wg.Add(1)
		go func(o op) {
			defer wg.Done()
			send(o, lag)
		}(o)
	}
	wg.Wait()
	return time.Since(start)
}

// poissonTimes returns the send times of a Poisson stream over span,
// conditioned on its expected count: that many points drawn uniformly and
// sorted. The count is then the same on every seed and only the spacing
// varies, so throughput figures do not carry the count's own noise.
func poissonTimes(rate float64, span time.Duration, r *rand.Rand) []time.Duration {
	n := int(rate * span.Seconds())
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(r.Float64() * float64(span))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
