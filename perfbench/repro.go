package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"dcmodel"
	"dcmodel/internal/crossexam"
	"dcmodel/internal/kooza"
	"dcmodel/internal/optimize"
	"dcmodel/internal/prand"
	"dcmodel/internal/spec"
	"dcmodel/internal/stats"
	"dcmodel/internal/trace"
)

// reproMinPasses keeps at least 100 samples in each class (7 inputs a
// pass), enough for a p90, however slow the machine.
const reproMinPasses = 15

// table2Requests is the size of the Table 2 input, as in the paper's
// validation run.
const table2Requests = 4000

// reproInput is one input of a pass: the Table 2 mix or a spec preset.
type reproInput struct {
	name string
	spec *spec.Compiled // nil for the Table 2 mix
}

// reproEnv holds a pass's inputs and the seeds of its random streams,
// each derived from the run's seed so no two streams share draws.
type reproEnv struct {
	simSeed, synthSeed int64
	inputs             []reproInput
	platform           dcmodel.Platform
}

// streamSeed derives the positive seed of one random stream of a run.
func streamSeed(seed int64, stream uint64) int64 {
	return int64(uint64(prand.Derive(seed, stream))>>1) | 1
}

func newReproEnv(seed int64) (*reproEnv, error) {
	env := &reproEnv{
		simSeed:   streamSeed(seed, 10),
		synthSeed: streamSeed(seed, 11),
		platform:  dcmodel.DefaultPlatform(),
		inputs:    []reproInput{{name: "table2"}},
	}
	for i, name := range spec.Names() {
		s, err := spec.Resolve(name)
		if err != nil {
			return nil, err
		}
		c, err := s.Compile(spec.Options{Seed: streamSeed(seed, 20+uint64(i))})
		if err != nil {
			return nil, fmt.Errorf("compile preset %s: %w", name, err)
		}
		env.inputs = append(env.inputs, reproInput{name: name, spec: c})
	}
	return env, nil
}

func (e *reproEnv) generate(in reproInput) (*dcmodel.Trace, error) {
	if in.spec != nil {
		return in.spec.Generate(0)
	}
	return dcmodel.Simulate(dcmodel.DefaultGFSConfig(), dcmodel.GFSRun{
		RunConfig: dcmodel.RunConfig{Mix: dcmodel.Table2Mix(), Requests: table2Requests, Seed: e.simSeed},
		Rate:      20,
	})
}

// runRepro runs the offline reproduction as a batch: each pass generates
// the seven inputs and runs CrossExamine, Validate and Provision on each.
// The traced phase makes the same calls one layer at a time and times each.
func runRepro(cfg runConfig, traced bool) (*phase, error) {
	var env *reproEnv
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		t := time.Now()
		var err error
		if env, err = newReproEnv(cfg.seed); err != nil {
			return nil, err
		}
		// Warm-up: a full untraced pass fills caches and grows the heap.
		env.pass(newRecorder(), nil)
		setups = append(setups, time.Since(t).Seconds())
	}

	rec := newRecorder()
	if err := pinnedTable2(env.platform); err != nil {
		rec.fail("validate", err)
	}
	for _, c := range []string{"crossexam", "validate", "provision"} {
		// An offline batch has no latency limit: only success counts
		// toward slo_ok_frac.
		rec.addClass(c, 0)
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var rates []float64
	var inputs []*dcmodel.Trace
	start := time.Now()
	for passes := 0; passes < reproMinPasses || time.Since(start) < cfg.seconds; passes++ {
		rate, in := env.pass(rec, tr)
		rates, inputs = append(rates, rate), in
	}
	sum, err := rec.summarize()
	if err != nil {
		return nil, err
	}
	// The live heap is measured with the last pass's inputs held, as a
	// caller holding its traces would.
	p := &phase{setupS: median(setups), sum: sum, requestsPerS: median(rates), heapMB: liveHeapMB()}
	runtime.KeepAlive(inputs)
	if traced {
		p.layers, p.spans = tr.layersPerPass(len(rates)), tr.spans
	}
	return p, nil
}

// pass runs one pass over the inputs and returns the input requests it
// carried per wall second, and the inputs it generated. With a tracer it
// makes each layer's call itself and times it; the replays the tracer
// re-runs to time them are left out of the pass's clock.
func (e *reproEnv) pass(rec *recorder, tr *tracer) (float64, []*dcmodel.Trace) {
	start, rerun0 := time.Now(), tr.rerunTime()
	var requests int
	var inputs []*dcmodel.Trace
	for _, in := range e.inputs {
		var t *dcmodel.Trace
		var err error
		layer := "spec.generate_s"
		if in.spec == nil {
			layer = "gfs.simulate_s"
		}
		err = tr.call(in.name, layer, func() (err error) { t, err = e.generate(in); return })
		if err != nil {
			rec.fail("crossexam", fmt.Errorf("generate %s: %w", in.name, err))
			continue
		}
		requests += t.Len()
		inputs = append(inputs, t)

		opStart, opRerun0 := time.Now(), tr.rerunTime()
		var scores []dcmodel.Scores
		if tr == nil {
			scores, err = dcmodel.CrossExamine(t, e.platform, dcmodel.CrossExamOptions{
				Requests: t.Len(), Seed: e.synthSeed, SkipThroughput: true,
			})
		} else {
			scores, err = tr.crossExamine(in.name, t, e.platform, e.synthSeed)
		}
		if err == nil {
			err = checkScores(scores)
		}
		rec.record("crossexam", time.Since(opStart)-(tr.rerunTime()-opRerun0), t.Len(), wrap(in.name, err))

		opStart = time.Now()
		if tr == nil {
			_, err = dcmodel.Validate(t, t.Len(), e.platform, dcmodel.KoozaOptions{}, e.synthSeed)
		} else {
			var rows []dcmodel.FeatureRow
			if rows, err = tr.validate(in.name, t, e.platform, e.synthSeed); err == nil && in.spec == nil {
				tr.table2Dev = max(tr.table2Dev, table2MaxDev(rows))
			}
		}
		rec.record("validate", time.Since(opStart), t.Len(), wrap(in.name, err))

		opStart = time.Now()
		req := dcmodel.ProvisionRequest{Trace: t, Model: "kooza", Objective: dcmodel.ProvisionObjective{TargetSeconds: 0.05}}
		var plan dcmodel.Plan
		if tr == nil {
			plan, err = dcmodel.Provision(context.Background(), req)
		} else {
			plan, err = tr.provision(in.name, req)
		}
		if err == nil {
			err = checkPlan(plan)
		}
		rec.record("provision", time.Since(opStart), t.Len(), wrap(in.name, err))
	}
	wall := time.Since(start) - (tr.rerunTime() - rerun0)
	tr.addPass(wall)
	return float64(requests) / wall.Seconds(), inputs
}

func wrap(input string, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", input, err)
	}
	return nil
}

// checkScores rejects a scorecard without the three approaches or with a
// score that is not a finite number.
func checkScores(scores []dcmodel.Scores) error {
	if len(scores) != 3 {
		return fmt.Errorf("scorecard has %d approaches, want 3", len(scores))
	}
	for _, s := range scores {
		for _, v := range []float64{s.RequestFeatures, s.TimeDependencies, s.FineGranularity, s.LatencyFidelity, s.Completeness} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 1 {
				return fmt.Errorf("approach %s has score %g outside [0, 1]", s.Name, v)
			}
		}
	}
	return nil
}

// pinnedTable2 runs the Table 2 validation on the input the repository's
// TestValidatePipelineMatchesTable2Bounds pins (simulation seed 2,
// synthesis seed 3) and applies its fence: feature and latency deviation
// at most 10% on every class. On seeded inputs the deviation is reported
// (validate.table2_max_dev), not fenced: about one seed in twenty puts the
// read64K utilization past 10%.
func pinnedTable2(p dcmodel.Platform) error {
	tr, err := dcmodel.Simulate(dcmodel.DefaultGFSConfig(), dcmodel.GFSRun{
		RunConfig: dcmodel.RunConfig{Mix: dcmodel.Table2Mix(), Requests: table2Requests, Seed: 2},
		Rate:      20,
	})
	if err != nil {
		return err
	}
	res, err := dcmodel.Validate(tr, table2Requests, p, dcmodel.KoozaOptions{}, 3)
	if err != nil {
		return err
	}
	if len(res.Rows) == 0 {
		return fmt.Errorf("Table 2 has no rows")
	}
	for _, r := range res.Rows {
		if d := r.FeatureDeviation(); !(d <= 0.10) {
			return fmt.Errorf("Table 2 class %s feature deviation %.1f%% > 10%%", r.Class, 100*d)
		}
		if d := r.LatencyDeviation(); !(d <= 0.10) {
			return fmt.Errorf("Table 2 class %s latency deviation %.1f%% > 10%%", r.Class, 100*d)
		}
	}
	return nil
}

// table2MaxDev is the largest feature or latency deviation of any class.
func table2MaxDev(rows []dcmodel.FeatureRow) float64 {
	var m float64
	for _, r := range rows {
		m = max(m, r.FeatureDeviation(), r.LatencyDeviation())
	}
	return m
}

// checkPlan rejects a plan that does not survive its own JSON wire
// contract byte for byte, or that ran more simulations than twin
// evaluations.
func checkPlan(plan dcmodel.Plan) error {
	b, err := json.Marshal(plan)
	if err != nil {
		return fmt.Errorf("encode plan: %w", err)
	}
	var back dcmodel.Plan
	if err := json.Unmarshal(b, &back); err != nil {
		return fmt.Errorf("decode plan: %w", err)
	}
	again, err := json.Marshal(back)
	if err != nil || !bytes.Equal(again, b) {
		return fmt.Errorf("plan does not round-trip through JSON")
	}
	if plan.TwinEvals < plan.DESRuns {
		return fmt.Errorf("plan ran %d simulations for %d twin evaluations", plan.DESRuns, plan.TwinEvals)
	}
	return nil
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// span is one timed call of a traced repro pass.
type span struct {
	Pass    int     `json:"pass"`
	Input   string  `json:"input"`
	Layer   string  `json:"layer"`
	Start   float64 `json:"start_s"`
	End     float64 `json:"end_s"`
	Mallocs uint64  `json:"mallocs"`
}

// tracer times each call of the traced repro pass. Its spans stay in
// memory until the run ends. A nil tracer times nothing and makes the
// untraced pass call the facade directly.
type tracer struct {
	origin    time.Time
	pass      int
	spans     []span
	layers    map[string]float64 // seconds
	counts    map[string]float64
	table2Dev float64 // largest Table 2 deviation on the seeded input
	passWall  time.Duration
	rerun     time.Duration // replays re-run to time them, left out of every clock
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), layers: map[string]float64{}, counts: map[string]float64{}}
}

// allocLayer names the malloc count kept beside a layer's time.
var allocLayer = map[string]string{
	"kooza.train_s":     "kooza.train_allocs",
	"inbreadth.train_s": "inbreadth.train_allocs",
	"indepth.train_s":   "indepth.train_allocs",
}

// call runs f; with a tracer it books f's wall time to layer and, for the
// training layers, the mallocs f made.
func (t *tracer) call(input, layer string, f func() error) error {
	if t == nil {
		return f()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	err := f()
	end := time.Now()
	runtime.ReadMemStats(&m1)
	t.layers[layer] += end.Sub(start).Seconds()
	if a, ok := allocLayer[layer]; ok {
		t.counts[a] += float64(m1.Mallocs - m0.Mallocs)
	}
	t.spans = append(t.spans, span{Pass: t.pass, Input: input, Layer: layer,
		Start: start.Sub(t.origin).Seconds(), End: end.Sub(t.origin).Seconds(), Mallocs: m1.Mallocs - m0.Mallocs})
	return err
}

// booked is the time booked to layers so far, in seconds.
func (t *tracer) booked() float64 {
	var s float64
	for _, v := range t.layers {
		s += v
	}
	return s
}

// rerunTime is the time spent so far re-running replays to time them.
func (t *tracer) rerunTime() time.Duration {
	if t == nil {
		return 0
	}
	return t.rerun
}

func (t *tracer) addPass(wall time.Duration) {
	if t == nil {
		return
	}
	t.passWall += wall
	t.pass++
}

// layersPerPass returns every layer per pass, plus the pass time and the
// share of it no timed call covers.
func (t *tracer) layersPerPass(passes int) map[string]float64 {
	out := map[string]float64{}
	for _, m := range []map[string]float64{t.layers, t.counts} {
		for k, v := range m {
			out[k] = v / float64(passes)
		}
	}
	out["validate.table2_max_dev"] = t.table2Dev
	out["repro.pass_s"] = t.passWall.Seconds() / float64(passes)
	out["repro.residual_frac"] = 1 - t.booked()/t.passWall.Seconds()
	return out
}

// trainLayer names each approach's training layer.
var trainLayer = map[dcmodel.Approach]string{
	dcmodel.Kooza:     "kooza.train_s",
	dcmodel.InBreadth: "inbreadth.train_s",
	dcmodel.InDepth:   "indepth.train_s",
}

// crossExamine makes the calls dcmodel.CrossExamine makes — train, build
// the twin and synthesize each approach inside crossexam.Evaluate — timing
// each. Evaluate's own replays cannot be timed from outside, so each is
// re-run on the same synthetic trace, timed, and left out of the pass's
// clock; crossexam.score_s is Evaluate's time less everything inside it
// that was timed. The chains run serially so the layers add up to the
// pass's wall time.
func (t *tracer) crossExamine(input string, tr *dcmodel.Trace, p dcmodel.Platform, seed int64) ([]dcmodel.Scores, error) {
	order := []dcmodel.Approach{dcmodel.InBreadth, dcmodel.InDepth, dcmodel.Kooza}
	knobs := map[dcmodel.Approach]int{dcmodel.InBreadth: 3, dcmodel.InDepth: 1, dcmodel.Kooza: 5}
	synths := make([]*dcmodel.Trace, len(order))
	approaches := make([]crossexam.Approach, len(order))
	for i, a := range order {
		i, a := i, a
		approaches[i] = crossexam.Approach{
			Name: a.String(), Knobs: knobs[a], SelfTimed: a == dcmodel.InDepth,
			Setup: func(ca *crossexam.Approach) error {
				var m dcmodel.Model
				if err := t.call(input, trainLayer[a], func() (err error) { m, err = dcmodel.Train(tr, a); return }); err != nil {
					return err
				}
				ca.NumParams = m.NumParams()
				ca.Synthesize = func(n int, r *rand.Rand) (out *dcmodel.Trace, err error) {
					err = t.call(input, "synth.batch_s", func() (err error) { out, err = m.SynthesizeBatch(n, r); return })
					synths[i] = out
					return out, err
				}
				return t.call(input, "twin.build_s", func() (err error) { ca.Twin, err = dcmodel.BuildTwin(m, p); return })
			},
		}
	}
	before := t.booked()
	start := time.Now()
	scores, err := crossexam.Evaluate(tr, approaches, tr.Len(), p, crossexam.Options{Seed: seed, Workers: 1, SkipThroughput: true})
	took := time.Since(start).Seconds()
	if err != nil {
		return nil, err
	}
	rerun := time.Now()
	for i, a := range approaches {
		if a.SelfTimed {
			continue
		}
		if err := t.call(input, "replay.run_s", func() error { _, err := dcmodel.Replay(synths[i], p); return err }); err != nil {
			return nil, err
		}
	}
	t.rerun += time.Since(rerun)
	inside := t.booked() - before
	t.layers["crossexam.score_s"] += took - inside
	t.spans = append(t.spans, span{Pass: t.pass, Input: input, Layer: "crossexam.evaluate",
		Start: start.Sub(t.origin).Seconds(), End: start.Sub(t.origin).Seconds() + took})
	return scores, nil
}

// validate makes the calls dcmodel.Validate makes, timing each, and
// compares the classes the way its Table 2 rows do.
func (t *tracer) validate(input string, tr *dcmodel.Trace, p dcmodel.Platform, seed int64) ([]dcmodel.FeatureRow, error) {
	var m *kooza.Model
	if err := t.call(input, "kooza.train_s", func() (err error) { m, err = kooza.Train(tr, dcmodel.KoozaOptions{}); return }); err != nil {
		return nil, err
	}
	var synth, timed *dcmodel.Trace
	if err := t.call(input, "synth.scalar_s", func() (err error) {
		synth, err = m.Synthesize(tr.Len(), rand.New(rand.NewSource(seed)))
		return
	}); err != nil {
		return nil, err
	}
	if err := t.call(input, "replay.run_s", func() (err error) { timed, err = dcmodel.Replay(synth, p); return }); err != nil {
		return nil, err
	}
	var rows []dcmodel.FeatureRow
	err := t.call(input, "validate.score_s", func() (err error) { rows, err = table2Rows(tr, synth, timed); return })
	return rows, err
}

// table2Rows compares original and synthetic classes on the columns the
// Table 2 fence reads: mean network payload, CPU utilization, memory and
// storage access size, and latency on the same platform.
func table2Rows(orig, synth, timed *dcmodel.Trace) ([]dcmodel.FeatureRow, error) {
	var rows []dcmodel.FeatureRow
	for _, class := range orig.Classes() {
		ot, st, tt := orig.ByClass(class), synth.ByClass(class), timed.ByClass(class)
		if st.Len() == 0 {
			return nil, fmt.Errorf("class %q missing from synthetic trace", class)
		}
		size := func(s trace.Span) float64 { return float64(s.Bytes) }
		util := func(s trace.Span) float64 { return s.Util }
		rows = append(rows, dcmodel.FeatureRow{
			Class:   class,
			NetOrig: netPayload(ot), NetSynth: netPayload(st),
			UtilOrig: stats.Mean(ot.SpanFeature(trace.CPU, util)), UtilSynth: stats.Mean(st.SpanFeature(trace.CPU, util)),
			MemOrig: stats.Mean(ot.SpanFeature(trace.Memory, size)), MemSynth: stats.Mean(st.SpanFeature(trace.Memory, size)),
			StorOrig: stats.Mean(ot.SpanFeature(trace.Storage, size)), StorSynth: stats.Mean(st.SpanFeature(trace.Storage, size)),
			LatOrig: stats.Mean(ot.Latencies()), LatSynth: stats.Mean(tt.Latencies()),
		})
	}
	return rows, nil
}

// netPayload averages each request's largest network transfer.
func netPayload(tr *dcmodel.Trace) float64 {
	payloads := make([]float64, 0, tr.Len())
	for _, r := range tr.Requests {
		var max int64
		for _, s := range r.SpansIn(trace.Network) {
			if s.Bytes > max {
				max = s.Bytes
			}
		}
		payloads = append(payloads, float64(max))
	}
	return stats.Mean(payloads)
}

// provision makes the calls dcmodel.Provision makes for a trace, timing
// each, and counts the plan's twin evaluations and simulations.
func (t *tracer) provision(input string, req dcmodel.ProvisionRequest) (dcmodel.Plan, error) {
	req = req.WithDefaults()
	var m dcmodel.Model
	if err := t.call(input, "kooza.train_s", func() (err error) { m, err = dcmodel.Train(req.Trace, dcmodel.Kooza); return }); err != nil {
		return dcmodel.Plan{}, err
	}
	var in optimize.Input
	if err := t.call(input, "twin.build_s", func() (err error) { in.Twins, err = dcmodel.ProvisionTwins(m, req.Space); return }); err != nil {
		return dcmodel.Plan{}, err
	}
	if err := t.call(input, "optimize.des_model_s", func() (err error) { in.DES, err = optimize.NewDESModel(req.Trace, req); return }); err != nil {
		return dcmodel.Plan{}, err
	}
	var plan dcmodel.Plan
	err := t.call(input, "optimize.search_s", func() (err error) { plan, err = optimize.Search(context.Background(), in, req); return })
	t.counts["optimize.twin_evals"] += float64(plan.TwinEvals)
	t.counts["optimize.des_runs"] += float64(plan.DESRuns)
	return plan, err
}
