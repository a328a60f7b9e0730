package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"dcmodel/internal/dapper"
	"dcmodel/internal/spec"
	"dcmodel/internal/trace"
)

// servedConns is the size of the load generator's connection pool: large
// enough that no request waits for a connection (loadgen.conn_wait_p90_ms
// stays near 0). With 2, requests queued behind a retraining ingest in the
// generator itself, and that wait set the tail.
const servedConns = 8

// synthN is the size of every synthesize request.
const synthN = 2000

// Latency limits of the served request classes; a failed or refused
// request misses its limit.
const (
	ingestLimit = 500 * time.Millisecond
	synthLimit  = 100 * time.Millisecond
	whatIfLimit = 20 * time.Millisecond
)

// ingestBody is one ingest request, encoded during set-up.
type ingestBody struct {
	data        []byte
	contentType string
	n           int
}

// codecTimes sums the time the trace codec takes per body, by codec and
// direction ("trace.csv.encode_s", ...).
type codecTimes struct {
	mu  sync.Mutex
	sum map[string]time.Duration
	n   map[string]int
}

func newCodecTimes() *codecTimes {
	return &codecTimes{sum: map[string]time.Duration{}, n: map[string]int{}}
}

func (c *codecTimes) add(layer string, d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sum[layer] += d
	c.n[layer]++
}

// layers returns the mean seconds per body of each codec layer.
func (c *codecTimes) layers(into map[string]float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, d := range c.sum {
		into[k] = d.Seconds() / float64(c.n[k])
	}
}

// codecLayer names the codec layer of a format ("csv" or "binary").
func codecLayer(format, dir string) string {
	if format == "binary" {
		return "trace.v2." + dir + "_s"
	}
	return "trace.csv." + dir + "_s"
}

// webtierBodies generates one webtier trace of warm + bodies*size
// requests from seed and encodes it: the first warm requests as one CSV
// body, then bodies bodies of size requests, alternating CSV and trace-v2,
// timing each encode.
func webtierBodies(seed int64, warm, bodies, size int, ct *codecTimes) (ingestBody, []ingestBody, error) {
	s, err := spec.Resolve("webtier")
	if err != nil {
		return ingestBody{}, nil, err
	}
	c, err := s.Compile(spec.Options{Seed: seed, Requests: warm + bodies*size})
	if err != nil {
		return ingestBody{}, nil, err
	}
	tr, err := c.Generate(0)
	if err != nil {
		return ingestBody{}, nil, err
	}
	first, err := encodeBody(tr.Requests[:warm], "csv", nil)
	if err != nil {
		return ingestBody{}, nil, err
	}
	out := make([]ingestBody, bodies)
	for i := range out {
		format := []string{"csv", "binary"}[i%2]
		reqs := tr.Requests[warm+i*size : warm+(i+1)*size]
		if out[i], err = encodeBody(reqs, format, ct); err != nil {
			return ingestBody{}, nil, err
		}
	}
	return first, out, nil
}

func encodeBody(reqs []trace.Request, format string, ct *codecTimes) (ingestBody, error) {
	var buf bytes.Buffer
	t := time.Now()
	var err error
	body := ingestBody{n: len(reqs), contentType: "text/csv"}
	if format == "binary" {
		body.contentType = trace.ContentTypeV2
		err = trace.WriteBinary(&buf, &trace.Trace{Requests: reqs})
	} else {
		err = trace.WriteCSV(&buf, &trace.Trace{Requests: reqs})
	}
	if err != nil {
		return ingestBody{}, fmt.Errorf("encode %s body: %w", format, err)
	}
	if ct != nil {
		ct.add(codecLayer(format, "encode"), time.Since(t))
	}
	body.data = buf.Bytes()
	return body, nil
}

// ingestOps schedules the bodies at a fixed rate, one at a time, each
// checked to have been taken whole.
func ingestOps(url string, bodies []ingestBody, rate float64) []op {
	ops := make([]op, len(bodies))
	for i, b := range bodies {
		due := time.Duration(float64(i) / rate * float64(time.Second))
		ops[i] = op{class: "ingest", due: due, serial: true,
			send: func(ctx context.Context, c *http.Client) ([]byte, error) {
				return do(ctx, c, http.MethodPost, url+"/v1/ingest", b.contentType, b.data)
			},
			check: func(body []byte) (int, error) { return b.n, checkIngestBody(body, b.n) },
		}
	}
	return ops
}

// synthOps schedules a Poisson stream of synthesize requests in one
// format, each with its own seed, each answer checked and its decode
// timed. query is appended to every request's URL.
func synthOps(url, query, format string, rate float64, span time.Duration, r *rand.Rand, seed0 int64, ct *codecTimes) []op {
	times := poissonTimes(rate, span, r)
	ops := make([]op, len(times))
	for i, due := range times {
		target := fmt.Sprintf("%s/v1/synthesize?n=%d&format=%s&seed=%d%s", url, synthN, format, seed0+int64(i), query)
		ops[i] = op{class: "synth", due: due,
			send: func(ctx context.Context, c *http.Client) ([]byte, error) {
				return do(ctx, c, http.MethodGet, target, "", nil)
			},
			check: func(body []byte) (int, error) {
				took, err := checkSynthBody(body, format, synthN)
				ct.add(codecLayer(format, "decode"), took)
				return synthN, err
			},
		}
	}
	return ops
}

// httpNode is one in-process HTTP server on a loopback port.
type httpNode struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func startHTTP(h http.Handler) (*httpNode, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &httpNode{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(n.done)
		_ = n.srv.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return n, nil
}

// stop shuts the server down and waits until it has stopped serving.
func (n *httpNode) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := n.srv.Shutdown(ctx); err != nil {
		n.srv.Close()
	}
	<-n.done
}

// spanSeconds sums the durations of the spans whose name starts with
// prefix, over every tree.
func spanSeconds(trees []*dapper.Tree, prefix string) float64 {
	var sum float64
	var walk func(*dapper.Node)
	walk = func(n *dapper.Node) {
		if n == nil {
			return
		}
		if n.Span != nil && strings.HasPrefix(n.Span.Name, prefix) {
			sum += n.Span.Duration()
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, t := range trees {
		walk(t.Root)
	}
	return sum
}
