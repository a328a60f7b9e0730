// Package kooza implements the paper's primary contribution: KOOZA, a
// modular, primarily in-breadth workload model with the ability to capture
// an application's time dependencies.
//
// The model of one workload comprises four simple per-subsystem models —
// Markov chains for storage (over Logical Block Ranges), processor (over
// CPU-utilization levels) and memory (over DRAM banks), and a queueing
// model for the network (the arrival rate of user requests) — plus a
// configurable per-class time-dependency queue recording the order in
// which the subsystems become active (the paper's Figure 2).
//
// Training consumes traces from the corresponding subsystems; synthesis
// walks the time-dependency queue and emits requests whose per-subsystem
// features are drawn from the four models. Latency is obtained by replaying
// the synthetic workload on the same (simulated) platform as the original.
package kooza

import (
	"fmt"

	"dcmodel/internal/markov"
	"dcmodel/internal/stats"
	"dcmodel/internal/trace"
)

// Options configures training.
type Options struct {
	// StorageRegions is the number of Logical Block Range states of the
	// storage Markov model. Default 32.
	StorageRegions int
	// CPUStates is the number of utilization-level states of the
	// processor Markov model. Default 8.
	CPUStates int
	// Smoothing is the Laplace pseudo-count used when training the Markov
	// chains. Default 0.01 (just enough to keep the chains irreducible without distorting rare-state occupancy).
	Smoothing float64
	// Hierarchical switches the storage model to the two-level
	// (region-group over regions) hierarchical representation the paper
	// describes as the refinement of the simple chain.
	Hierarchical bool
	// HierGroups is the number of top-level groups of the hierarchical
	// storage model. Default 8.
	HierGroups int
	// DiskBlocks is the LBN address-space size used to map LBNs to
	// regions; 0 infers it from the trace (max LBN observed).
	DiskBlocks int64
	// ArrivalStates selects the network queueing model's detail: 1 (the
	// default) fits a renewal process (i.i.d. interarrivals, the paper's
	// "simple queueing model"); >1 fits a semi-Markov arrival model with
	// that many gap states (hierarchical refinement capturing bursty,
	// MMPP-like correlation in the arrival stream).
	ArrivalStates int
}

func (o Options) withDefaults() Options {
	if o.StorageRegions <= 0 {
		o.StorageRegions = 32
	}
	if o.CPUStates <= 0 {
		o.CPUStates = 8
	}
	if o.Smoothing < 0 {
		o.Smoothing = 0
	} else if o.Smoothing == 0 {
		o.Smoothing = 0.01
	}
	if o.HierGroups <= 0 {
		o.HierGroups = 8
	}
	if o.ArrivalStates <= 0 {
		o.ArrivalStates = 1
	}
	return o
}

// StorageModel is the storage Markov model: a chain over LBN-range states
// with per-state LBN distributions, a sequentiality probability, and the
// request size/type mix — the I/O features of Sankar et al. and Gulati et
// al.
type StorageModel struct {
	// Chain is the flat region chain (nil when Hier is set).
	Chain *markov.Chain
	// Hier is the hierarchical variant (nil when Chain is set).
	Hier *markov.Hierarchical
	// Regions is the number of LBN-range states.
	Regions int
	// BlocksPerRegion maps LBNs to states: state = LBN / BlocksPerRegion.
	BlocksPerRegion int64
	// StateLBNs holds the within-region empirical LBN distribution per
	// state (nil for states never observed).
	StateLBNs []*stats.Empirical
	// SeqProb is the probability an I/O continues exactly where the
	// previous one ended (spatial locality).
	SeqProb float64
	// Sizes is the I/O size distribution.
	Sizes *stats.Empirical
	// ReadProb is the fraction of read I/Os.
	ReadProb float64
}

// NumParams reports the model complexity (scorecard input).
func (m *StorageModel) NumParams() int {
	n := 2 // SeqProb, ReadProb
	if m.Chain != nil {
		n += m.Chain.NumParams()
	}
	if m.Hier != nil {
		n += m.Hier.NumParams()
	}
	return n
}

// CPUModel is the processor Markov model: a chain over utilization-level
// states with per-state empirical utilization values. Levels decouple the
// model from absolute utilization (the paper's answer to CPU models being
// "a reflection of the platform").
type CPUModel struct {
	Chain *markov.Chain
	// Levels holds the empirical utilization values per state.
	Levels []*stats.Empirical
	// Lo and Hi are the quantization range.
	Lo, Hi float64
}

// NumParams reports the model complexity.
func (m *CPUModel) NumParams() int { return m.Chain.NumParams() + 2 }

// MemoryModel is the memory Markov model: a chain over DRAM banks with the
// access size/type mix.
type MemoryModel struct {
	Chain *markov.Chain
	// Banks is the number of bank states.
	Banks int
	// Sizes is the access-size distribution.
	Sizes *stats.Empirical
	// ReadProb is the fraction of read accesses.
	ReadProb float64
}

// NumParams reports the model complexity.
func (m *MemoryModel) NumParams() int { return m.Chain.NumParams() + 1 }

// NetworkModel is the queueing model of request arrivals: the fitted
// interarrival distribution (selected by Kolmogorov-Smirnov distance over
// the parametric families) and the implied arrival rate. With
// ArrivalStates > 1 it additionally carries a semi-Markov gap model: a
// chain over gap regimes with per-regime empirical gap distributions,
// capturing burst correlation a renewal model cannot.
type NetworkModel struct {
	// Interarrival is the fitted interarrival-time distribution.
	Interarrival stats.Dist
	// FitKS is the KS distance of the winning fit.
	FitKS float64
	// Rate is the mean arrival rate (1 / mean interarrival).
	Rate float64
	// GapChain and GapStates implement the semi-Markov refinement (nil
	// for the renewal model): GapChain transitions between gap regimes,
	// GapStates holds each regime's empirical gaps.
	GapChain  *markov.Chain
	GapStates []*stats.Empirical
}

// NumParams reports the model complexity.
func (m *NetworkModel) NumParams() int {
	n := len(m.Interarrival.Params()) + 1
	if m.GapChain != nil {
		n += m.GapChain.NumParams()
	}
	return n
}

// PhaseQueue is one observed control-flow path of a class: a
// time-dependency queue with its empirical share of the class's requests.
// Most applications have a single dominant path; branching control flow
// (e.g. cache hit vs. miss) yields several.
type PhaseQueue struct {
	// Phases is the subsystem order of this path.
	Phases []trace.Subsystem
	// Weight is the path's share within the class.
	Weight float64
	// CPUBytes holds, per CPU phase position in Phases, the distribution
	// of bytes processed (used by replay to recompute CPU service times).
	CPUBytes []*stats.Empirical
}

// ClassModel aggregates the per-subsystem models of one request class plus
// its time-dependency queue(s).
type ClassModel struct {
	// Name is the request-class label.
	Name string
	// Weight is the class's share of the request stream.
	Weight float64
	// Phases is the modal (most frequent) time-dependency queue — the
	// order in which the subsystem models become active for a typical
	// request of this class.
	Phases []trace.Subsystem
	// Queues holds every retained control-flow path with its weight,
	// modal first. Synthesis draws a path per request.
	Queues []PhaseQueue
	// Storage, CPU and Memory are the three Markov models.
	Storage *StorageModel
	CPU     *CPUModel
	Memory  *MemoryModel
	// NetIn and NetOut are the request/response transfer sizes.
	NetIn, NetOut *stats.Empirical
	// ServerWeights is the empirical distribution of servers that
	// executed this class (multi-server instancing).
	ServerWeights map[int]float64
}

// NumParams reports the model complexity.
func (c *ClassModel) NumParams() int {
	n := 1 + c.Storage.NumParams() + c.CPU.NumParams() + c.Memory.NumParams() + 2
	for _, q := range c.Queues {
		n += len(q.Phases) + 1
	}
	return n
}

// Model is a trained KOOZA workload model.
type Model struct {
	// Classes holds one ClassModel per request class.
	Classes []*ClassModel
	// Network is the shared arrival-process model.
	Network *NetworkModel
	// Opts records the training options used.
	Opts Options
	// TrainedOn is the number of training requests.
	TrainedOn int
}

// NumParams reports the total model complexity, the "ease-of-use /
// complexity" input of the cross-examination scorecard.
func (m *Model) NumParams() int {
	n := m.Network.NumParams()
	for _, c := range m.Classes {
		n += c.NumParams()
	}
	return n
}

// Class returns the class model with the given name, or an error.
func (m *Model) Class(name string) (*ClassModel, error) {
	for _, c := range m.Classes {
		if c.Name == name {
			return c, nil
		}
	}
	return nil, fmt.Errorf("kooza: unknown class %q", name)
}
