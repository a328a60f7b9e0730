package dcmodel

import (
	"math/rand"

	"dcmodel/internal/dapper"
	"dcmodel/internal/gwp"
	"dcmodel/internal/kooza"
	"dcmodel/internal/obs"
	"dcmodel/internal/power"
	"dcmodel/internal/sqs"
)

// Facade over the observation and applicability tooling: Dapper-style
// request tracing, GWP-style cluster profiling, SQS-style datacenter
// sizing, and the power/energy models of the paper's §5.

// Tracing (Dapper) re-exports.
type (
	// TraceTree is one request's assembled span tree.
	TraceTree = dapper.Tree
	// TraceRecorder receives finished span trees — the single tracing seam
	// shared by the GFS simulator (RunConfig.Recorder), the replay engine
	// (Platform.Recorder), the serving daemon (ServeConfig.Obs) and
	// RecordRequests. Collectors, bounded rings and sampling decorators all
	// implement or wrap it.
	TraceRecorder = dapper.Recorder
	// TraceCollector is the simplest TraceRecorder: it keeps every
	// recorded tree in memory (Trees returns them in record order).
	TraceCollector = dapper.Collector
	// TraceRing is a bounded TraceRecorder keeping the most recent trees,
	// evicting the oldest when full.
	TraceRing = obs.TraceRing
	// ObsOptions configures the serving daemon's observability layer
	// (ServeConfig.Obs): trace sampling rate, trace ring capacity, an
	// extra TraceRecorder tap, and the /debug/pprof/ mount.
	ObsOptions = obs.Options
	// Observer bundles a metrics registry and a TraceRecorder for
	// WithObserver; either half may be nil.
	Observer = obs.Observer
	// MetricsRegistry is a concurrency-safe metric registry rendered in
	// the Prometheus plain-text exposition format.
	MetricsRegistry = obs.Registry
)

// DefaultObsOptions returns the recommended daemon observability
// settings: 1-in-1024 trace sampling into a 128-tree ring, pprof off.
func DefaultObsOptions() ObsOptions { return obs.DefaultOptions() }

// NewTraceRing returns a bounded TraceRecorder holding up to capacity
// trees (minimum 1).
func NewTraceRing(capacity int) *TraceRing { return obs.NewTraceRing(capacity) }

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// RecordRequests replays a workload through deterministic 1-in-sampleEvery
// head sampling and delivers each sampled request's span tree to rec,
// returning how many requests were seen and recorded:
//
//	var c dcmodel.TraceCollector
//	started, sampled, err := dcmodel.RecordRequests(tr, 1000, &c)
func RecordRequests(tr *Trace, sampleEvery int, rec TraceRecorder) (started, sampled int64, err error) {
	return dapper.RecordWorkload(tr, sampleEvery, rec)
}

// Profiling (GWP) re-exports.
type (
	// Profile is a cluster-wide sampled profile.
	Profile = gwp.Profile
	// ProfileOptions configures profile collection.
	ProfileOptions = gwp.Options
)

// CollectProfile samples a workload trace across machines.
func CollectProfile(tr *Trace, opts ProfileOptions) (*Profile, error) {
	return gwp.Collect(tr, opts)
}

// Sizing (SQS) re-exports.
type (
	// SQSModel is an empirical workload model for farm sizing.
	SQSModel = sqs.Model
	// SQSResult is one evaluated farm configuration.
	SQSResult = sqs.Result
)

// CharacterizeSQS builds an SQS empirical model from a trace with the
// given bounded sample budget.
func CharacterizeSQS(tr *Trace, maxSamples int, seed int64) (*SQSModel, error) {
	r := rand.New(rand.NewSource(seed))
	c, err := sqs.NewCharacterizer(maxSamples, r)
	if err != nil {
		return nil, err
	}
	if err := c.ObserveTrace(tr); err != nil {
		return nil, err
	}
	return c.Model()
}

// Power re-exports.
type (
	// ServerPowerModel is a per-subsystem linear power model.
	ServerPowerModel = power.ServerPower
	// EnergyBreakdown is a per-subsystem energy accounting.
	EnergyBreakdown = power.Breakdown
)

// BigCorePower and SmallCorePower return the two reference server power
// models used by the server-configuration study.
func BigCorePower() ServerPowerModel   { return power.BigCoreServer() }
func SmallCorePower() ServerPowerModel { return power.SmallCoreServer() }

// ServerEnergy accounts one server's energy over a trace.
func ServerEnergy(tr *Trace, server int, sp ServerPowerModel) (EnergyBreakdown, error) {
	return power.Energy(tr, server, sp)
}

// ClusterEnergy accounts the whole cluster's energy over a trace.
func ClusterEnergy(tr *Trace, sp ServerPowerModel) (EnergyBreakdown, error) {
	return power.ClusterEnergy(tr, sp)
}

// FeatureReport is the PCA feature-space analysis of a trace (§4).
type FeatureReport = kooza.FeatureReport

// AnalyzeFeatures runs the standardized-PCA feature-space analysis,
// reporting the workload's effective dimensionality and what loads on the
// leading components.
func AnalyzeFeatures(tr *Trace) (*FeatureReport, error) {
	return kooza.FeatureAnalysis(tr)
}
