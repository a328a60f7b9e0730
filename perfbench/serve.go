package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"dcmodel/internal/dapper"
	"dcmodel/internal/obs"
	"dcmodel/internal/prand"
	"dcmodel/internal/serve"
)

// The serve workload: an in-process dcmodeld at its defaults except that
// it retrains after every serveRetrainEvery fresh requests.
const (
	serveRetrainEvery = 2048
	serveFill         = 8192 // requests ingested during set-up
	serveBody         = 512  // requests per ingest body
	serveIngestRate   = 4.0  // ingest bodies per second
	serveSynthBinRate = 15.0 // format=binary synthesize requests per second
	serveSynthCSVRate = 5.0  // CSV synthesize requests per second
	serveWhatIfRate   = 40.0 // what-if queries per second
)

// whatIfLoads and whatIfDown are the what-if queries the stream cycles
// through.
var (
	whatIfLoads = []float64{0.5, 0.75, 1, 1.25, 1.5, 1.75, 2}
	whatIfDown  = []int{0, 1, 2}
)

type serveEnv struct {
	srv    *serve.Server
	node   *httpNode
	client *http.Client
	bodies []ingestBody
	codec  *codecTimes
	spans  *dapper.Collector // traced only
}

// newServeEnv starts a daemon, fills its window with serveFill webtier
// requests and aligns its retrain count on them, and encodes the ingest
// bodies of the measured phase.
func newServeEnv(cfg runConfig, traced bool) (*serveEnv, error) {
	env := &serveEnv{client: newClient(servedConns), codec: newCodecTimes()}
	scfg := serve.DefaultConfig()
	scfg.RetrainMin = serveRetrainEvery
	// Any model is stale by the next ingest, so a retrain fires exactly
	// when serveRetrainEvery fresh requests have come in.
	scfg.RetrainInterval = time.Millisecond
	if traced {
		env.spans = &dapper.Collector{}
		scfg.Obs = &obs.Options{SampleEvery: 1, Recorder: env.spans}
	}
	var err error
	if env.srv, err = serve.New(scfg); err != nil {
		return nil, err
	}
	if env.node, err = startHTTP(env.srv.Handler()); err != nil {
		env.srv.Close()
		return nil, err
	}
	bodies := int(serveIngestRate * cfg.seconds.Seconds())
	fill, measured, err := webtierBodies(cfg.seed, serveFill, bodies, serveBody, env.codec)
	if err != nil {
		env.close()
		return nil, err
	}
	env.bodies = measured
	ctx := context.Background()
	body, err := do(ctx, env.client, http.MethodPost, env.node.url+"/v1/ingest", fill.contentType, fill.data)
	if err == nil {
		err = checkIngestBody(body, fill.n)
	}
	if err == nil {
		// The background poller may have trained mid-fill; one retrain
		// over the full window puts the retrain boundaries on multiples
		// of serveRetrainEvery from here.
		err = env.srv.Retrain()
	}
	if err != nil {
		env.close()
		return nil, fmt.Errorf("fill window: %w", err)
	}
	return env, nil
}

func (e *serveEnv) close() {
	e.node.stop()
	e.srv.Close()
	e.client.CloseIdleConnections()
}

// whatIfOps schedules the Poisson what-if stream, each answer checked.
func whatIfOps(url string, span time.Duration, r *rand.Rand) ([]op, error) {
	times := poissonTimes(serveWhatIfRate, span, r)
	ops := make([]op, len(times))
	for i, due := range times {
		load, down := whatIfLoads[i%len(whatIfLoads)], whatIfDown[i%len(whatIfDown)]
		q, err := json.Marshal(map[string]any{"model": "kooza", "query": map[string]any{"load_factor": load, "servers_down": down}})
		if err != nil {
			return nil, err
		}
		ops[i] = op{class: "whatif", due: due,
			send: func(ctx context.Context, c *http.Client) ([]byte, error) {
				return do(ctx, c, http.MethodPost, url+"/v1/whatif", "application/json", q)
			},
			check: func(body []byte) (int, error) { return 0, checkWhatIfBody(body, load, down) },
		}
	}
	return ops, nil
}

// runServe drives the daemon with an open loop of ingest, synthesize and
// what-if requests on the same window and model set.
func runServe(cfg runConfig, traced bool) (*phase, error) {
	var env *serveEnv
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		if env != nil {
			env.close()
		}
		t := time.Now()
		var err error
		if env, err = newServeEnv(cfg, traced); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer env.close()

	r := prand.New(cfg.seed, 1)
	url := env.node.url
	ops := ingestOps(url, env.bodies, serveIngestRate)
	ops = append(ops, synthOps(url, "&model=kooza", "binary", serveSynthBinRate, cfg.seconds, r, 1, env.codec)...)
	ops = append(ops, synthOps(url, "&model=kooza", "csv", serveSynthCSVRate, cfg.seconds, r, 1_000_000, env.codec)...)
	w, err := whatIfOps(url, cfg.seconds, r)
	if err != nil {
		return nil, err
	}
	ops = append(ops, w...)

	ctx := context.Background()
	before, err := scrape(ctx, env.client, url)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	rec.addClass("ingest", ingestLimit)
	rec.addClass("synth", synthLimit)
	rec.addClass("whatif", whatIfLimit)
	wall := openLoop(ctx, env.client, servedConns, ops, rec)
	ops, env.bodies = nil, nil

	after, err := scrape(ctx, env.client, url)
	if err != nil {
		return nil, err
	}
	d := delta(before, after)
	ingested := rec.requestsOf("ingest")
	if got, want := d["dcmodeld_retrain_total"], float64(ingested/serveRetrainEvery); got != want {
		rec.fail("ingest", fmt.Errorf("%g retrains over %d ingested requests, want %g", got, ingested, want))
	}
	sum, err := rec.summarize()
	if err != nil {
		return nil, err
	}
	p := &phase{setupS: median(setups), sum: sum, requestsPerS: float64(sum.requests) / wall.Seconds(), heapMB: liveHeapMB()}
	if traced {
		p.layers = serveLayers(d, sum)
		env.codec.layers(p.layers)
		p.spans = env.spans.Trees()
	}
	return p, nil
}

// serveLayers reads the daemon's own stage histograms and counters over
// the measured phase: mean seconds per stage call, exact counts, and per
// request type the client latency no stage covers.
func serveLayers(d map[string]float64, sum summary) map[string]float64 {
	const family = "dcmodeld_stage_seconds"
	perCall := func(name string) float64 {
		s, n := stage(d, family, name)
		if n == 0 {
			return 0
		}
		return s / n
	}
	total := func(names ...string) float64 {
		var t float64
		for _, n := range names {
			s, _ := stage(d, family, n)
			t += s
		}
		return t
	}
	out := map[string]float64{
		"serve.ingest.decode_s":    perCall("ingest.decode"),
		"serve.train.kooza_s":      perCall("train.kooza"),
		"serve.train.inbreadth_s":  perCall("train.inbreadth"),
		"serve.train.indepth_s":    perCall("train.indepth"),
		"serve.train.ref_s":        perCall("train.ref"),
		"serve.refreeze_s":         perCall("refreeze"),
		"serve.retrains":           d["dcmodeld_retrain_total"],
		"serve.queue.wait_s":       perCall("queue.wait"),
		"serve.synthesize_s":       perCall("synthesize"),
		"serve.encode_s":           perCall("encode"),
		"serve.whatif.compile_s":   perCall("whatif.compile"),
		"serve.whatif.solve_s":     perCall("whatif.solve"),
		"serve.rejected":           d["dcmodeld_queue_rejected_total"],
		"serve.deadline_exceeded":  d["dcmodeld_deadline_exceeded_total"],
		"loadgen.lag_p90_ms":       sum.lagP90,
		"loadgen.conn_wait_p90_ms": sum.connWaitP90,
	}
	stages := map[string][]string{
		"ingest": {"ingest.decode", "train.kooza", "train.inbreadth", "train.indepth", "train.ref", "refreeze"},
		"synth":  {"queue.wait", "synthesize", "encode"},
		"whatif": {"whatif.compile", "whatif.solve"},
	}
	for class, names := range stages {
		if c, ok := sum.class(class); ok && c.n > 0 {
			out["serve.residual_ms."+class] = c.mean - 1000*total(names...)/float64(c.n)
		}
	}
	return out
}
