package dcmodel

// This file collects every deprecated facade wrapper in one place. Each
// wrapper is a thin, behavior-identical shim over its replacement and will
// be removed in a future major revision. Migration table:
//
//	Deprecated                  Replacement
//	--------------------------  ----------------------------------------------
//	TrainKooza(tr, opts)        Train(tr, Kooza, WithKoozaOptions(opts))
//	TrainInBreadth(tr, opts)    Train(tr, InBreadth, WithInBreadthOptions(opts))
//	TrainInDepth(tr)            Train(tr, InDepth)
//	m.SynthesizeBatch(n, r)     m.Synthesize(n, r)
//
// The Train shims return the concrete model types (*KoozaModel, ...);
// Train returns the common Model interface. Callers that need
// approach-specific surface can keep the shims or type-assert Train's
// result.

import "math/rand"

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
