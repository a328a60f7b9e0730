package dcmodel

// This file collects every deprecated facade wrapper in one place. Each
// wrapper is a thin, behavior-identical shim over its replacement and will
// be removed in a future major revision. Migration table:
//
//	Deprecated                  Replacement
//	--------------------------  ----------------------------------------------
//	SimulateGFS(cfg, run, s)    Simulate(cfg, run) with run.Seed = s
//	SimulateGFSClosed(c, r, s)  SimulateClosed(c, r) with r.Seed = s
//	TrainKooza(tr, opts)        Train(tr, Kooza, WithKoozaOptions(opts))
//	TrainInBreadth(tr, opts)    Train(tr, InBreadth, WithInBreadthOptions(opts))
//	TrainInDepth(tr)            Train(tr, InDepth)
//	CrossExamineOpts(...)       CrossExamine(tr, p, CrossExamOptions{...})
//	TraceRequests(tr, n)        RecordRequests(tr, n, rec) with a TraceRecorder
//	WhatIf(m, p, q)             BuildTwin(m, p) then tw.WhatIf(q); for
//	                            sizing searches, Provision(ctx, req)
//	m.SynthesizeBatch(n, r)     m.Synthesize(n, r)
//
// The Train shims return the concrete model types (*KoozaModel, ...);
// Train returns the common Model interface. Callers that need
// approach-specific surface can keep the shims or type-assert Train's
// result.

import (
	"math/rand"

	"dcmodel/internal/dapper"
)

// SimulateGFS is the pre-RunConfig spelling of Simulate.
//
// Deprecated: use Simulate and set run.Seed instead of passing seed
// positionally.
func SimulateGFS(cfg GFSConfig, run GFSRun, seed int64) (*Trace, error) {
	run.Seed = seed
	return Simulate(cfg, run)
}

// SimulateGFSClosed is the pre-RunConfig spelling of SimulateClosed.
//
// Deprecated: use SimulateClosed and set run.Seed instead of passing seed
// positionally.
func SimulateGFSClosed(cfg GFSConfig, run GFSClosedRun, seed int64) (*Trace, error) {
	run.Seed = seed
	return SimulateClosed(cfg, run)
}

// TrainKooza fits the paper's combined model to a trace and returns the
// concrete model type.
//
// Deprecated: use Train(tr, Kooza, ...) for the common Model interface;
// keep TrainKooza only when KOOZA-specific surface is needed.
func TrainKooza(tr *Trace, opts KoozaOptions) (*KoozaModel, error) {
	m, err := Train(tr, Kooza, WithKoozaOptions(opts))
	if err != nil {
		return nil, err
	}
	return m.(koozaTrained).Model, nil
}

// TrainInBreadth fits the per-subsystem baseline to a trace.
//
// Deprecated: use Train(tr, InBreadth, ...) for the common Model interface.
func TrainInBreadth(tr *Trace, opts InBreadthOptions) (*InBreadthModel, error) {
	m, err := Train(tr, InBreadth, WithInBreadthOptions(opts))
	if err != nil {
		return nil, err
	}
	return m.(inBreadthTrained).Model, nil
}

// TrainInDepth fits the request-flow baseline to a trace.
//
// Deprecated: use Train(tr, InDepth) for the common Model interface.
func TrainInDepth(tr *Trace) (*InDepthModel, error) {
	m, err := Train(tr, InDepth)
	if err != nil {
		return nil, err
	}
	return m.(inDepthTrained).Model, nil
}

// CrossExamineOpts is the pre-options-struct spelling of CrossExamine.
//
// Deprecated: use CrossExamine with CrossExamOptions{Requests: n, Seed:
// seed, ...}.
func CrossExamineOpts(tr *Trace, n int, p Platform, seed int64, opts CrossExamOptions) ([]Scores, error) {
	opts.Requests, opts.Seed = n, seed
	return CrossExamine(tr, p, opts)
}

// WhatIf is the one-shot convenience over BuildTwin: compile the model's
// twin on the platform and answer a single query.
//
// Deprecated: use BuildTwin once and reuse the twin for repeated queries;
// for provisioning searches use Provision, which drives the same twin
// through the optimizer with DES validation. Kept behavior-identical for
// existing callers.
func WhatIf(m Model, p Platform, q WhatIfQuery) (WhatIfAnswer, error) {
	tw, err := BuildTwin(m, p)
	if err != nil {
		return WhatIfAnswer{}, err
	}
	return tw.WhatIf(q)
}

// TraceRequests replays a workload through a 1-in-sampleEvery sampling
// tracer and returns it; call Trees on the result for the sampled trees.
//
// Deprecated: use RecordRequests with a TraceRecorder (e.g. a
// *TraceCollector) — the Recorder seam composes with rings, tees and
// samplers where the tracer-shaped return value cannot. Kept
// behavior-identical for existing callers.
func TraceRequests(tr *Trace, sampleEvery int) (*Tracer, error) {
	return dapper.TraceWorkload(tr, sampleEvery)
}

// SynthesizeBatch is the retired bulk flavor of Synthesize: each model
// family has one synthesis loop, and the alias returns it unchanged.
//
// Deprecated: use Synthesize.
func (m koozaTrained) SynthesizeBatch(n int, r *rand.Rand) (*Trace, error) { return m.Synthesize(n, r) }

// Deprecated: use Synthesize.
func (m inBreadthTrained) SynthesizeBatch(n int, r *rand.Rand) (*Trace, error) {
	return m.Synthesize(n, r)
}

// Deprecated: use Synthesize.
func (m inDepthTrained) SynthesizeBatch(n int, r *rand.Rand) (*Trace, error) {
	return m.Synthesize(n, r)
}
