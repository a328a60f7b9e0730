package kooza

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"dcmodel/internal/markov"
	"dcmodel/internal/stats"
	"dcmodel/internal/trace"
)

// Train fits a KOOZA model to a trace: one ClassModel per request class
// (four subsystem models plus the time-dependency queue), and the shared
// network arrival model. Each subsystem model is trained purely from the
// spans of the corresponding subsystem, as the paper prescribes ("each one
// of the four models is trained using traces from the corresponding
// subsystem"); the time-dependency queue is extracted from the complete
// round trip of the requests.
func Train(tr *trace.Trace, opts Options) (*Model, error) {
	if tr == nil || tr.Len() == 0 {
		return nil, trace.ErrEmptyTrace
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("kooza: invalid training trace: %w", err)
	}
	opts = opts.withDefaults()
	sorted := &trace.Trace{Requests: append([]trace.Request(nil), tr.Requests...)}
	sorted.SortByArrival()

	// Network model: fit the interarrival distribution by KS selection.
	gaps := sorted.Interarrivals()
	if len(gaps) < 2 {
		return nil, fmt.Errorf("kooza: need >= 3 requests to fit the arrival process, got %d", tr.Len())
	}
	best, err := stats.FitBest(gaps)
	if err != nil {
		return nil, fmt.Errorf("kooza: arrival fit: %w", err)
	}
	meanGap := stats.Mean(gaps)
	rate := 0.0
	if meanGap > 0 {
		rate = 1 / meanGap
	}
	model := &Model{
		Network:   &NetworkModel{Interarrival: best.Dist, FitKS: best.KS, Rate: rate},
		Opts:      opts,
		TrainedOn: tr.Len(),
	}
	if opts.ArrivalStates > 1 {
		if err := trainGapChain(model.Network, gaps, opts); err != nil {
			return nil, fmt.Errorf("kooza: arrival gap chain: %w", err)
		}
	}

	for _, name := range sorted.Classes() {
		sub := sorted.ByClass(name)
		cm, err := trainClass(name, sub, float64(sub.Len())/float64(sorted.Len()), opts)
		if err != nil {
			return nil, fmt.Errorf("kooza: class %q: %w", name, err)
		}
		model.Classes = append(model.Classes, cm)
	}
	return model, nil
}

// trainGapChain fits the semi-Markov arrival refinement: gap regimes are
// found by k-means clustering of log-gaps (burst and idle gaps separate
// into modes, as in an MMPP), then a Markov chain over regimes is trained
// with per-regime empirical gaps.
func trainGapChain(nm *NetworkModel, gaps []float64, opts Options) error {
	k := opts.ArrivalStates
	if len(gaps) < 4*k {
		return fmt.Errorf("need >= %d gaps for %d arrival states, got %d", 4*k, k, len(gaps))
	}
	logs := stats.NewMatrix(len(gaps), 1)
	const floor = 1e-9
	for i, g := range gaps {
		if g < floor {
			g = floor
		}
		logs.Set(i, 0, math.Log(g))
	}
	// Deterministic seeding keeps Train reproducible.
	km, err := stats.KMeans(logs, k, rand.New(rand.NewSource(1)), 100)
	if err != nil {
		return err
	}
	seq := km.Assign
	perState := make([][]float64, k)
	for i, s := range seq {
		perState[s] = append(perState[s], gaps[i])
	}
	chain, err := markov.Train([][]int{seq}, k, opts.Smoothing)
	if err != nil {
		return err
	}
	states := make([]*stats.Empirical, k)
	for s, vals := range perState {
		if len(vals) == 0 {
			// Equal-frequency binning can starve a state on tied data;
			// fall back to the pooled gaps.
			vals = gaps
		}
		emp, err := stats.NewEmpirical(vals)
		if err != nil {
			return err
		}
		states[s] = emp
	}
	nm.GapChain = chain
	nm.GapStates = states
	return nil
}

func trainClass(name string, tr *trace.Trace, weight float64, opts Options) (*ClassModel, error) {
	cm := &ClassModel{Name: name, Weight: weight}

	// Time-dependency queues: every retained control-flow path of the
	// class, modal first.
	queues, paths, err := phaseQueues(tr)
	if err != nil {
		return nil, err
	}
	cm.Queues = queues
	cm.Phases = queues[0].Phases

	// Server instancing weights.
	cm.ServerWeights = make(map[int]float64)
	for _, r := range tr.Requests {
		cm.ServerWeights[r.Server] += 1 / float64(tr.Len())
	}

	var trainErr error
	must := func(e error, what string) {
		if e != nil && trainErr == nil {
			trainErr = fmt.Errorf("%s: %w", what, e)
		}
	}

	cm.Storage, trainErr = trainStorage(tr, opts)
	if trainErr != nil {
		return nil, trainErr
	}
	cm.CPU, trainErr = trainCPU(tr, opts)
	if trainErr != nil {
		return nil, trainErr
	}
	cm.Memory, trainErr = trainMemory(tr, opts)
	if trainErr != nil {
		return nil, trainErr
	}

	// Network transfer sizes: first and last network span of each request.
	var inBytes, outBytes []float64
	// CPU processing amounts per queue, per CPU phase position.
	cpuBytes := make([][][]float64, len(queues))
	for qi, q := range queues {
		numCPU := 0
		for _, p := range q.Phases {
			if p == trace.CPU {
				numCPU++
			}
		}
		cpuBytes[qi] = make([][]float64, numCPU)
	}
	for _, r := range tr.Requests {
		first, last := -1, -1
		for i := range r.Spans {
			if r.Spans[i].Subsystem == trace.Network {
				if first < 0 {
					first = i
				}
				last = i
			}
		}
		if first >= 0 {
			inBytes = append(inBytes, float64(r.Spans[first].Bytes))
			outBytes = append(outBytes, float64(r.Spans[last].Bytes))
		}
		qi, ok := paths.Index(r)
		if !ok || qi >= len(queues) {
			continue // below-threshold path; not modeled
		}
		i := 0
		for _, s := range r.Spans {
			if s.Subsystem != trace.CPU {
				continue
			}
			if i < len(cpuBytes[qi]) {
				cpuBytes[qi][i] = append(cpuBytes[qi][i], float64(s.Bytes))
			}
			i++
		}
	}
	var e error
	cm.NetIn, e = stats.NewEmpirical(inBytes)
	must(e, "network-in sizes")
	cm.NetOut, e = stats.NewEmpirical(outBytes)
	must(e, "network-out sizes")
	for qi := range queues {
		cm.Queues[qi].CPUBytes = make([]*stats.Empirical, len(cpuBytes[qi]))
		for i, vals := range cpuBytes[qi] {
			if len(vals) == 0 {
				continue
			}
			cm.Queues[qi].CPUBytes[i], e = stats.NewEmpirical(vals)
			must(e, "cpu processing sizes")
		}
	}
	if trainErr != nil {
		return nil, trainErr
	}
	return cm, nil
}

// phaseQueueMinShare is the smallest per-class share a control-flow path
// needs to be retained as its own time-dependency queue.
const phaseQueueMinShare = 0.005

// phaseQueues returns the class's retained phase sequences with weights,
// most frequent first, and the counter that maps a request to its path's
// position in them.
func phaseQueues(tr *trace.Trace) ([]PhaseQueue, *trace.PathCounter, error) {
	var paths trace.PathCounter
	total := 0
	for _, r := range tr.Requests {
		if len(r.Spans) == 0 {
			continue
		}
		paths.Add(r)
		total++
	}
	if total == 0 {
		return nil, nil, fmt.Errorf("time-dependency queue: no spans in class")
	}
	var queues []PhaseQueue
	var kept float64
	for i, p := range paths.Ranked() {
		share := float64(p.N) / float64(total)
		if i > 0 && share < phaseQueueMinShare {
			break
		}
		queues = append(queues, PhaseQueue{Phases: p.Phases, Weight: share})
		kept += share
	}
	// Renormalize over the retained paths.
	for i := range queues {
		queues[i].Weight /= kept
	}
	return queues, &paths, nil
}

func trainStorage(tr *trace.Trace, opts Options) (*StorageModel, error) {
	// Collect the storage span stream in time order.
	type io struct {
		start float64
		lbn   int64
		bytes int64
		op    trace.Op
	}
	var ios []io
	for _, r := range tr.Requests {
		for _, s := range r.Spans {
			if s.Subsystem != trace.Storage {
				continue
			}
			ios = append(ios, io{start: s.Start, lbn: s.LBN, bytes: s.Bytes, op: s.Op})
		}
	}
	if len(ios) == 0 {
		return nil, fmt.Errorf("storage model: no storage spans")
	}
	sort.Slice(ios, func(i, j int) bool { return ios[i].start < ios[j].start })

	diskBlocks := opts.DiskBlocks
	if diskBlocks <= 0 {
		var maxLBN int64
		for _, x := range ios {
			if x.lbn > maxLBN {
				maxLBN = x.lbn
			}
		}
		diskBlocks = maxLBN + 1
	}
	blocksPerRegion := diskBlocks / int64(opts.StorageRegions)
	if blocksPerRegion < 1 {
		blocksPerRegion = 1
	}
	m := &StorageModel{
		Regions:         opts.StorageRegions,
		BlocksPerRegion: blocksPerRegion,
		StateLBNs:       make([]*stats.Empirical, opts.StorageRegions),
	}
	stateOf := func(lbn int64) int {
		s := int(lbn / blocksPerRegion)
		if s < 0 {
			return 0
		}
		if s >= opts.StorageRegions {
			return opts.StorageRegions - 1
		}
		return s
	}
	seq := make([]int, len(ios))
	perState := make([][]float64, opts.StorageRegions)
	sizes := make([]float64, len(ios))
	var reads, seqRuns int
	var prevEnd int64 = -1
	for i, x := range ios {
		st := stateOf(x.lbn)
		seq[i] = st
		perState[st] = append(perState[st], float64(x.lbn))
		sizes[i] = float64(x.bytes)
		if x.op == trace.OpRead {
			reads++
		}
		if prevEnd >= 0 && x.lbn == prevEnd {
			seqRuns++
		}
		prevEnd = x.lbn + (x.bytes+4095)/4096
	}
	if len(ios) > 1 {
		m.SeqProb = float64(seqRuns) / float64(len(ios)-1)
	}
	m.ReadProb = float64(reads) / float64(len(ios))
	var err error
	if opts.Hierarchical {
		groups := make([]int, opts.StorageRegions)
		per := (opts.StorageRegions + opts.HierGroups - 1) / opts.HierGroups
		for i := range groups {
			g := i / per
			if g >= opts.HierGroups {
				g = opts.HierGroups - 1
			}
			groups[i] = g
		}
		// Dense groups are guaranteed only when regions >= groups.
		if opts.StorageRegions < opts.HierGroups {
			for i := range groups {
				groups[i] = i
			}
		}
		m.Hier, err = markov.TrainHierarchical([][]int{seq}, opts.StorageRegions, groups, opts.Smoothing)
	} else {
		m.Chain, err = markov.Train([][]int{seq}, opts.StorageRegions, opts.Smoothing)
	}
	if err != nil {
		return nil, fmt.Errorf("storage chain: %w", err)
	}
	for st, vals := range perState {
		if len(vals) > 0 {
			emp, err := stats.NewEmpirical(vals)
			if err != nil {
				return nil, err
			}
			m.StateLBNs[st] = emp
		}
	}
	m.Sizes, err = stats.NewEmpirical(sizes)
	if err != nil {
		return nil, err
	}
	return m, nil
}

func trainCPU(tr *trace.Trace, opts Options) (*CPUModel, error) {
	var utils []float64
	for _, r := range tr.Requests {
		for _, s := range r.Spans {
			if s.Subsystem != trace.CPU {
				continue
			}
			utils = append(utils, s.Util)
		}
	}
	if len(utils) == 0 {
		return nil, fmt.Errorf("cpu model: no cpu spans")
	}
	lo, hi := stats.Min(utils), stats.Max(utils)
	if hi <= lo {
		hi = lo + 1e-9
	}
	m := &CPUModel{Lo: lo, Hi: hi, Levels: make([]*stats.Empirical, opts.CPUStates)}
	// Quantize and train the level chain.
	n := opts.CPUStates
	stateOf := func(u float64) int {
		s := int(float64(n) * (u - lo) / (hi - lo))
		if s < 0 {
			return 0
		}
		if s >= n {
			return n - 1
		}
		return s
	}
	seq := make([]int, len(utils))
	perState := make([][]float64, n)
	for i, u := range utils {
		s := stateOf(u)
		seq[i] = s
		perState[s] = append(perState[s], u)
	}
	chain, err := markov.Train([][]int{seq}, n, opts.Smoothing)
	if err != nil {
		return nil, fmt.Errorf("cpu chain: %w", err)
	}
	m.Chain = chain
	for s, vals := range perState {
		if len(vals) > 0 {
			emp, err := stats.NewEmpirical(vals)
			if err != nil {
				return nil, err
			}
			m.Levels[s] = emp
		}
	}
	return m, nil
}

func trainMemory(tr *trace.Trace, opts Options) (*MemoryModel, error) {
	type access struct {
		start float64
		bank  int
		bytes int64
		op    trace.Op
	}
	var accs []access
	maxBank := 0
	for _, r := range tr.Requests {
		for _, s := range r.Spans {
			if s.Subsystem != trace.Memory {
				continue
			}
			accs = append(accs, access{start: s.Start, bank: s.Bank, bytes: s.Bytes, op: s.Op})
			if s.Bank > maxBank {
				maxBank = s.Bank
			}
		}
	}
	if len(accs) == 0 {
		return nil, fmt.Errorf("memory model: no memory spans")
	}
	sort.Slice(accs, func(i, j int) bool { return accs[i].start < accs[j].start })
	banks := maxBank + 1
	m := &MemoryModel{Banks: banks}
	seq := make([]int, len(accs))
	sizes := make([]float64, len(accs))
	var reads int
	for i, a := range accs {
		b := a.bank
		if b < 0 {
			b = 0
		}
		seq[i] = b
		sizes[i] = float64(a.bytes)
		if a.op == trace.OpRead {
			reads++
		}
	}
	m.ReadProb = float64(reads) / float64(len(accs))
	chain, err := markov.Train([][]int{seq}, banks, opts.Smoothing)
	if err != nil {
		return nil, fmt.Errorf("memory chain: %w", err)
	}
	m.Chain = chain
	m.Sizes, err = stats.NewEmpirical(sizes)
	if err != nil {
		return nil, err
	}
	return m, nil
}
