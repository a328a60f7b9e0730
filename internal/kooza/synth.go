package kooza

import (
	"fmt"
	"math/rand"
	"sort"

	"dcmodel/internal/stats"
	"dcmodel/internal/trace"
)

// Synthesize generates n synthetic requests from the model: arrivals come
// from the network queueing model, each request's class is drawn from the
// class weights, and the request's spans follow the class's
// time-dependency queue with features emitted by the four subsystem
// models. Span durations are zero — the synthetic workload describes what
// to do, not how long it takes; timing comes from replaying it on a
// (simulated) platform. Span storage is reserved a slab of requests at a
// time (trace.SpanArena.ReserveSlab), sized by the widest phase path any
// class or queue variant can emit.
//
// A trained Model is read-only: Synthesize keeps all walk state in
// per-call walkers and never mutates the model, so concurrent Synthesize
// calls on one Model are safe as long as each call gets its own
// *rand.Rand (see prand.New for derived streams).
func (m *Model) Synthesize(n int, r *rand.Rand) (*trace.Trace, error) {
	if n < 1 {
		return nil, fmt.Errorf("kooza: synthesize needs n >= 1, got %d", n)
	}
	if len(m.Classes) == 0 {
		return nil, fmt.Errorf("kooza: model has no classes")
	}
	// Class picker: one alias build per call, then O(1) per request.
	weights := make([]float64, len(m.Classes))
	var wsum float64
	for i, c := range m.Classes {
		weights[i] = c.Weight
		wsum += c.Weight
	}
	if wsum <= 0 {
		return nil, fmt.Errorf("kooza: class weights sum to zero")
	}
	classAlias, err := stats.NewAlias(weights)
	if err != nil {
		return nil, fmt.Errorf("kooza: class weights: %w", err)
	}
	// Per-class walker state; construction consumes RNG (chain Start
	// draws) in class order. The widest phase path any class (or queue
	// variant) can emit bounds the spans one request can take from the
	// arena.
	walkers := make([]*classWalker, len(m.Classes))
	maxPhases := 0
	for i, c := range m.Classes {
		walkers[i] = newClassWalker(c, r)
		maxPhases = max(maxPhases, len(c.Phases))
		for qi := range c.Queues {
			maxPhases = max(maxPhases, len(c.Queues[qi].Phases))
		}
	}
	// Semi-Markov arrivals walk the gap-regime chain; otherwise gaps come
	// from the fitted interarrival distribution.
	gapChain := m.Network.GapChain
	gapStates := m.Network.GapStates
	inter := m.Network.Interarrival
	gapState := 0
	if gapChain != nil {
		gapState = gapChain.Start(r)
	}
	tr := &trace.Trace{Requests: make([]trace.Request, 0, n)}
	var arena trace.SpanArena
	var now float64
	for i := 0; i < n; i++ {
		arena.ReserveSlab(i, n, maxPhases)
		var gap float64
		if gapChain != nil {
			gapState = gapChain.Step(gapState, r)
			gap = gapStates[gapState].Rand(r)
		} else {
			gap = inter.Rand(r)
		}
		if gap < 0 {
			gap = 0
		}
		now += gap
		ci := classAlias.Draw(r)
		tr.Requests = append(tr.Requests, walkers[ci].next(int64(i), now, r, &arena))
	}
	return tr, nil
}

// classWalker carries the Markov walk state of one class across requests.
type classWalker struct {
	c *ClassModel
	// storageState is the current LBN-region state.
	storageState int
	// cpuState is the current utilization level.
	cpuState int
	// memBank is the current bank state.
	memBank int
	// lastEnd is the block after the previous synthetic I/O (sequential
	// continuation).
	lastEnd int64
	hasLast bool
	// servers and serverAlias implement the server-instancing draw.
	servers     []int
	serverAlias stats.Alias
	// queueAlias implements the per-request control-flow-path draw.
	queueAlias stats.Alias
}

func newClassWalker(c *ClassModel, r *rand.Rand) *classWalker {
	w := &classWalker{c: c}
	if c.Storage.Chain != nil {
		w.storageState = c.Storage.Chain.Start(r)
	}
	w.cpuState = c.CPU.Chain.Start(r)
	w.memBank = c.Memory.Chain.Start(r)
	// Stable server order for determinism.
	for s := range c.ServerWeights {
		w.servers = append(w.servers, s)
	}
	sort.Ints(w.servers)
	if len(w.servers) > 0 {
		sw := make([]float64, len(w.servers))
		for i, s := range w.servers {
			sw[i] = c.ServerWeights[s]
		}
		w.serverAlias = stats.MustAlias(sw)
	}
	if len(c.Queues) > 0 {
		qw := make([]float64, len(c.Queues))
		for i, q := range c.Queues {
			qw[i] = q.Weight
		}
		w.queueAlias = stats.MustAlias(qw)
	}
	return w
}

func (w *classWalker) pickQueue(r *rand.Rand) *PhaseQueue {
	if w.queueAlias.Empty() {
		return nil
	}
	return &w.c.Queues[w.queueAlias.Draw(r)]
}

func (w *classWalker) pickServer(r *rand.Rand) int {
	if w.serverAlias.Empty() {
		return 0
	}
	return w.servers[w.serverAlias.Draw(r)]
}

// next synthesizes one request, carving its span slice from the arena.
func (w *classWalker) next(id int64, arrival float64, r *rand.Rand, arena *trace.SpanArena) trace.Request {
	c := w.c
	req := trace.Request{
		ID:      id,
		Class:   c.Name,
		Server:  w.pickServer(r),
		Arrival: arrival,
	}
	queue := w.pickQueue(r)
	phases := c.Phases
	var queueCPUBytes []*stats.Empirical
	if queue != nil {
		phases = queue.Phases
		queueCPUBytes = queue.CPUBytes
	}
	req.Spans = arena.Take(len(phases))
	var (
		sawNetwork int
		sawCPU     int
		cpuUtil    = w.nextCPUUtil(r)
	)
	for _, phase := range phases {
		span := trace.Span{Subsystem: phase, Start: arrival}
		switch phase {
		case trace.Network:
			if sawNetwork == 0 {
				span.Bytes = int64(c.NetIn.Rand(r))
			} else {
				span.Bytes = int64(c.NetOut.Rand(r))
			}
			sawNetwork++
		case trace.CPU:
			span.Util = cpuUtil
			if sawCPU < len(queueCPUBytes) && queueCPUBytes[sawCPU] != nil {
				span.Bytes = int64(queueCPUBytes[sawCPU].Rand(r))
			}
			sawCPU++
		case trace.Memory:
			w.memBank = c.Memory.Chain.Step(w.memBank, r)
			span.Bank = w.memBank
			span.Bytes = int64(c.Memory.Sizes.Rand(r))
			span.Op = opFromProb(c.Memory.ReadProb, r)
		case trace.Storage:
			lbn, bytes := w.nextIO(r)
			span.LBN = lbn
			span.Bytes = bytes
			span.Op = opFromProb(c.Storage.ReadProb, r)
		}
		if span.Bytes < 0 {
			span.Bytes = 0
		}
		req.Spans = append(req.Spans, span)
	}
	return req
}

// nextCPUUtil advances the utilization-level chain and emits a value from
// the level's empirical distribution.
func (w *classWalker) nextCPUUtil(r *rand.Rand) float64 {
	c := w.c.CPU
	w.cpuState = c.Chain.Step(w.cpuState, r)
	state := w.cpuState
	if c.Levels[state] == nil {
		// Never-observed level (reachable only through smoothing): fall
		// back to the level midpoint.
		n := c.Chain.N
		mid := c.Lo + (c.Hi-c.Lo)*(float64(state)+0.5)/float64(n)
		return clampUtil(mid)
	}
	return clampUtil(c.Levels[state].Rand(r))
}

// nextIO advances the storage chain and emits (LBN, size).
func (w *classWalker) nextIO(r *rand.Rand) (int64, int64) {
	s := w.c.Storage
	bytes := int64(s.Sizes.Rand(r))
	if bytes < 1 {
		bytes = 1
	}
	// Sequential continuation reproduces spatial locality.
	if w.hasLast && r.Float64() < s.SeqProb {
		lbn := w.lastEnd
		w.lastEnd = lbn + (bytes+4095)/4096
		return lbn, bytes
	}
	if s.Chain != nil {
		w.storageState = s.Chain.Step(w.storageState, r)
	} else {
		// Hierarchical one-step walk: simulate a length-2 fragment so the
		// walk continues from the current state's group.
		seq := s.Hier.Simulate(2, r)
		w.storageState = seq[len(seq)-1]
	}
	lbn := w.sampleLBN(w.storageState, r)
	w.hasLast = true
	w.lastEnd = lbn + (bytes+4095)/4096
	return lbn, bytes
}

func (w *classWalker) sampleLBN(state int, r *rand.Rand) int64 {
	s := w.c.Storage
	if state >= 0 && state < len(s.StateLBNs) && s.StateLBNs[state] != nil {
		lbn := int64(s.StateLBNs[state].Rand(r))
		if lbn < 0 {
			lbn = 0
		}
		return lbn
	}
	// Unobserved region: uniform within the region.
	lo := int64(state) * s.BlocksPerRegion
	return lo + int64(r.Float64()*float64(s.BlocksPerRegion))
}

func opFromProb(readProb float64, r *rand.Rand) trace.Op {
	if r.Float64() < readProb {
		return trace.OpRead
	}
	return trace.OpWrite
}

func clampUtil(u float64) float64 {
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}
