package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"dcmodel/internal/cluster"
	"dcmodel/internal/dapper"
	"dcmodel/internal/obs"
	"dcmodel/internal/prand"
)

// The cluster workload: an in-process coordinator over clusterWorkers
// workers, all at their defaults.
const (
	clusterWorkers    = 3
	clusterMergeEvery = 4096 // the coordinator's default merge period
	clusterWarm       = 4096 // requests ingested during set-up: one merge
	clusterBody       = 1024 // requests per ingest body
	clusterIngestRate = 4.0  // ingest bodies per second
	clusterSynthRate  = 10.0 // synthesize requests per second
	clusterBinShare   = 0.75 // share of synthesize requests in format=binary
	clusterModelSynth = 5    // in-process synthesize calls timed on the merged model
)

type clusterEnv struct {
	workers []*httpNode
	coord   *cluster.Coordinator
	node    *httpNode
	client  *http.Client
	bodies  []ingestBody
	codec   *codecTimes
	spans   *dapper.Collector // traced only
	sent    int64             // requests ingested so far
}

// newClusterEnv starts the workers and the coordinator, warms the cluster
// through one merge, and encodes the ingest bodies of the measured phase.
func newClusterEnv(cfg runConfig, traced bool) (*clusterEnv, error) {
	env := &clusterEnv{client: newClient(servedConns), codec: newCodecTimes()}
	var urls []string
	for i := 0; i < clusterWorkers; i++ {
		w, err := cluster.NewWorker(cluster.WorkerConfig{})
		if err != nil {
			env.close()
			return nil, err
		}
		n, err := startHTTP(w.Handler())
		if err != nil {
			env.close()
			return nil, err
		}
		env.workers = append(env.workers, n)
		urls = append(urls, n.url)
	}
	ccfg := cluster.CoordinatorConfig{Workers: urls}
	if traced {
		env.spans = &dapper.Collector{}
		ccfg.Obs = &obs.Options{SampleEvery: 1, Recorder: env.spans}
	}
	var err error
	if env.coord, err = cluster.NewCoordinator(ccfg); err != nil {
		env.close()
		return nil, err
	}
	if env.node, err = startHTTP(env.coord.Handler()); err != nil {
		env.close()
		return nil, err
	}
	bodies := int(clusterIngestRate * cfg.seconds.Seconds())
	warm, measured, err := webtierBodies(cfg.seed, clusterWarm, bodies, clusterBody, env.codec)
	if err != nil {
		env.close()
		return nil, err
	}
	env.bodies = measured
	body, err := do(context.Background(), env.client, http.MethodPost, env.node.url+"/v1/ingest", warm.contentType, warm.data)
	if err == nil {
		err = checkIngestBody(body, warm.n)
	}
	if err == nil && env.coord.Generation() != 1 {
		err = fmt.Errorf("warm-up made generation %d, want 1", env.coord.Generation())
	}
	if err != nil {
		env.close()
		return nil, fmt.Errorf("warm cluster: %w", err)
	}
	env.sent = int64(warm.n)
	return env, nil
}

func (e *clusterEnv) close() {
	if e.node != nil {
		e.node.stop()
	}
	for _, w := range e.workers {
		w.stop()
	}
	e.client.CloseIdleConnections()
}

// runCluster drives the coordinator with an open loop of routed ingest and
// synthesize requests.
func runCluster(cfg runConfig, traced bool) (*phase, error) {
	var env *clusterEnv
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		if env != nil {
			env.close()
		}
		t := time.Now()
		var err error
		if env, err = newClusterEnv(cfg, traced); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer env.close()

	r := prand.New(cfg.seed, 2)
	url := env.node.url
	ops := ingestOps(url, env.bodies, clusterIngestRate)
	ops = append(ops, synthOps(url, "", "binary", clusterSynthRate*clusterBinShare, cfg.seconds, r, 1, env.codec)...)
	ops = append(ops, synthOps(url, "", "csv", clusterSynthRate*(1-clusterBinShare), cfg.seconds, r, 1_000_000, env.codec)...)

	ctx := context.Background()
	statsBefore, err := clusterStats(ctx, env.client, url)
	if err != nil {
		return nil, err
	}
	gen0 := env.coord.Generation()
	rec := newRecorder()
	rec.addClass("ingest", ingestLimit)
	rec.addClass("synth", synthLimit)
	wall := openLoop(ctx, env.client, servedConns, ops, rec)
	ops, env.bodies = nil, nil

	ingested := rec.requestsOf("ingest")
	env.sent += ingested
	st, err := clusterStats(ctx, env.client, url)
	if err != nil {
		return nil, err
	}
	if held := st.held(); held != env.sent {
		rec.fail("ingest", fmt.Errorf("cluster holds %d requests, %d were sent", held, env.sent))
	}
	merges := env.coord.Generation() - gen0
	if want := ingested / clusterMergeEvery; merges != want {
		rec.fail("ingest", fmt.Errorf("%d merges over %d ingested requests, want %d", merges, ingested, want))
	}
	var layers map[string]float64
	if traced {
		if layers, err = env.clusterLayers(ctx, st, statsBefore, merges); err != nil {
			rec.fail("ingest", err)
			layers = map[string]float64{}
		}
	}
	sum, err := rec.summarize()
	if err != nil {
		return nil, err
	}
	p := &phase{setupS: median(setups), sum: sum, requestsPerS: float64(sum.requests) / wall.Seconds(), heapMB: liveHeapMB()}
	if traced {
		layers["loadgen.lag_p90_ms"] = sum.lagP90
		layers["loadgen.conn_wait_p90_ms"] = sum.connWaitP90
		if c, ok := sum.class("ingest"); ok && c.n > 0 {
			layers["cluster.route_s"] = spanSeconds(env.spans.Trees(), "route:worker-") / float64(c.n)
		}
		env.codec.layers(layers)
		p.layers, p.spans = layers, env.spans.Trees()
	}
	return p, nil
}

// clusterView is the part of /v1/stats the checks read.
type clusterView struct {
	Workers []struct {
		Logged int64 `json:"logged_requests"`
	} `json:"workers"`
	Degraded      int64 `json:"degraded_total"`
	LocalRequests int64 `json:"local_requests"`
}

// held is every request the cluster has taken: each worker's routing log
// plus what the coordinator absorbed itself.
func (v clusterView) held() int64 {
	n := v.LocalRequests
	for _, w := range v.Workers {
		n += w.Logged
	}
	return n
}

func clusterStats(ctx context.Context, client *http.Client, url string) (clusterView, error) {
	var v clusterView
	body, err := do(ctx, client, http.MethodGet, url+"/v1/stats", "", nil)
	if err != nil {
		return v, err
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return v, fmt.Errorf("cluster stats: %w", err)
	}
	return v, nil
}

// clusterLayers times what a merge does on the shards as they stand after
// the measured phase — unmarshal each pulled shard, merge them, marshal
// the result — and synthesis from the merged model, and reads the
// routing balance and the refusal counts.
func (e *clusterEnv) clusterLayers(ctx context.Context, st, before clusterView, merges int64) (map[string]float64, error) {
	var blobs [][]byte
	var rejected float64
	for _, w := range e.workers {
		b, err := do(ctx, e.client, http.MethodGet, w.url+"/v1/model", "", nil)
		if err != nil {
			return nil, err
		}
		blobs = append(blobs, b)
		m, err := scrape(ctx, e.client, w.url)
		if err != nil {
			return nil, err
		}
		rejected += m["dcmodel_cluster_worker_rejected_total"]
	}
	start := time.Now()
	global, err := cluster.NewModel(cluster.DefaultModelConfig())
	if err != nil {
		return nil, err
	}
	for _, b := range blobs {
		shard, err := cluster.UnmarshalModel(b)
		if err != nil {
			return nil, err
		}
		if err := global.Merge(shard); err != nil {
			return nil, err
		}
	}
	if _, err := global.MarshalBinary(); err != nil {
		return nil, err
	}
	mergeS := time.Since(start).Seconds()
	if global.Requests() != e.sent {
		return nil, fmt.Errorf("merged shards hold %d requests, %d were sent", global.Requests(), e.sent)
	}
	var synthS float64
	for i := 0; i < clusterModelSynth; i++ {
		start = time.Now()
		tr, err := global.Synthesize(synthN, rand.New(rand.NewSource(int64(i+1))))
		synthS += time.Since(start).Seconds() / clusterModelSynth
		if err != nil {
			return nil, err
		}
		if err := checkTrace(tr, synthN); err != nil {
			return nil, err
		}
	}

	var maxLogged, total float64
	for _, w := range st.Workers {
		total += float64(w.Logged)
		maxLogged = max(maxLogged, float64(w.Logged))
	}
	return map[string]float64{
		"cluster.merges":               float64(merges),
		"cluster.merge_s":              mergeS,
		"cluster.routed_max_over_mean": maxLogged / (total / float64(len(st.Workers))),
		"cluster.model.synthesize_s":   synthS,
		"cluster.worker_rejected":      rejected,
		"cluster.degraded":             float64(st.Degraded - before.Degraded),
	}, nil
}
