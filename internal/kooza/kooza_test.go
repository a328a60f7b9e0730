package kooza

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dcmodel/internal/gfs"
	"dcmodel/internal/replay"
	"dcmodel/internal/stats"
	"dcmodel/internal/trace"
	"dcmodel/internal/workload"
)

func gfsTrace(t *testing.T, n int, seed int64) *trace.Trace {
	t.Helper()
	c, err := gfs.NewCluster(gfs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := c.Run(gfs.RunConfig{
		Mix:      workload.Table2Mix(),
		Arrivals: workload.Poisson{Rate: 20},
		Requests: n,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func trainOn(t *testing.T, tr *trace.Trace, opts Options) *Model {
	t.Helper()
	m, err := Train(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTrainBasics(t *testing.T) {
	tr := gfsTrace(t, 2000, 600)
	m := trainOn(t, tr, Options{})
	if len(m.Classes) != 2 {
		t.Fatalf("classes = %d, want 2", len(m.Classes))
	}
	if m.TrainedOn != 2000 {
		t.Errorf("TrainedOn = %d", m.TrainedOn)
	}
	if m.Network.Rate < 15 || m.Network.Rate > 25 {
		t.Errorf("network rate = %g, want ~20", m.Network.Rate)
	}
	// Poisson arrivals: the KS-selected family should be exponential-like.
	name := m.Network.Interarrival.Name()
	if name != "exponential" && name != "gamma" && name != "weibull" {
		t.Errorf("arrival fit = %s, want exponential-like", name)
	}
	// Phase queue matches Figure 1.
	want := []trace.Subsystem{
		trace.Network, trace.CPU, trace.Memory, trace.Storage, trace.CPU, trace.Network,
	}
	for _, c := range m.Classes {
		if !reflect.DeepEqual(c.Phases, want) {
			t.Errorf("class %s phases = %v", c.Name, c.Phases)
		}
		if c.Weight < 0.3 || c.Weight > 0.7 {
			t.Errorf("class %s weight = %g, want ~0.5", c.Name, c.Weight)
		}
	}
	// Class lookup.
	if _, err := m.Class("read64K"); err != nil {
		t.Error(err)
	}
	if _, err := m.Class("nope"); err == nil {
		t.Error("unknown class should fail")
	}
	if m.NumParams() <= 0 {
		t.Error("NumParams should be positive")
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, Options{}); err == nil {
		t.Error("nil trace should fail")
	}
	if _, err := Train(&trace.Trace{}, Options{}); err == nil {
		t.Error("empty trace should fail")
	}
	bad := &trace.Trace{Requests: []trace.Request{{ID: 1, Arrival: -1}}}
	if _, err := Train(bad, Options{}); err == nil {
		t.Error("invalid trace should fail")
	}
	two := &trace.Trace{Requests: []trace.Request{{ID: 1}, {ID: 2, Arrival: 1}}}
	if _, err := Train(two, Options{}); err == nil {
		t.Error("too-short trace should fail")
	}
	// Requests without storage spans cannot train the storage model.
	noSpans := &trace.Trace{Requests: []trace.Request{
		{ID: 1, Arrival: 0, Spans: []trace.Span{{Subsystem: trace.CPU, Util: 0.1}}},
		{ID: 2, Arrival: 1, Spans: []trace.Span{{Subsystem: trace.CPU, Util: 0.2}}},
		{ID: 3, Arrival: 2, Spans: []trace.Span{{Subsystem: trace.CPU, Util: 0.3}}},
	}}
	if _, err := Train(noSpans, Options{}); err == nil {
		t.Error("trace without storage spans should fail")
	}
}

func TestSynthesizeFeatureFidelity(t *testing.T) {
	// Table 2's request-feature comparison: synthetic features should
	// match the original within ~1%.
	tr := gfsTrace(t, 3000, 601)
	m := trainOn(t, tr, Options{})
	synth, err := m.Synthesize(3000, rand.New(rand.NewSource(602)))
	if err != nil {
		t.Fatal(err)
	}
	if err := synth.Validate(); err != nil {
		t.Fatalf("synthetic trace invalid: %v", err)
	}
	for _, class := range tr.Classes() {
		ot := tr.ByClass(class)
		st := synth.ByClass(class)
		if st.Len() == 0 {
			t.Fatalf("class %s missing from synthetic trace", class)
		}
		// Deterministic request sizes must be exact.
		origSize := stats.Mean(ot.SpanFeature(trace.Storage, func(s trace.Span) float64 { return float64(s.Bytes) }))
		synthSize := stats.Mean(st.SpanFeature(trace.Storage, func(s trace.Span) float64 { return float64(s.Bytes) }))
		if dev := stats.RelError(origSize, synthSize); dev > 0.001 {
			t.Errorf("class %s storage size deviation %g", class, dev)
		}
		origMem := stats.Mean(ot.SpanFeature(trace.Memory, func(s trace.Span) float64 { return float64(s.Bytes) }))
		synthMem := stats.Mean(st.SpanFeature(trace.Memory, func(s trace.Span) float64 { return float64(s.Bytes) }))
		if dev := stats.RelError(origMem, synthMem); dev > 0.001 {
			t.Errorf("class %s memory size deviation %g", class, dev)
		}
		// Modeled CPU utilization close to the original (a few percent
		// relative).
		origUtil := stats.Mean(ot.SpanFeature(trace.CPU, func(s trace.Span) float64 { return s.Util }))
		synthUtil := stats.Mean(st.SpanFeature(trace.CPU, func(s trace.Span) float64 { return s.Util }))
		if dev := stats.RelError(origUtil, synthUtil); dev > 0.15 {
			t.Errorf("class %s cpu util deviation %g (%g vs %g)", class, dev, origUtil, synthUtil)
		}
		// Operation mix preserved.
		origReads := readFrac(ot)
		synthReads := readFrac(st)
		if math.Abs(origReads-synthReads) > 0.05 {
			t.Errorf("class %s read fraction %g vs %g", class, origReads, synthReads)
		}
	}
	// Arrival rate preserved.
	origRate := 1 / stats.Mean(tr.Interarrivals())
	synthRate := 1 / stats.Mean(synth.Interarrivals())
	if dev := stats.RelError(origRate, synthRate); dev > 0.1 {
		t.Errorf("arrival rate deviation %g", dev)
	}
}

func readFrac(tr *trace.Trace) float64 {
	ops := tr.SpanFeature(trace.Storage, func(s trace.Span) float64 {
		if s.Op == trace.OpRead {
			return 1
		}
		return 0
	})
	return stats.Mean(ops)
}

func TestReplayedLatencyFidelity(t *testing.T) {
	// Table 2's performance comparison: replaying the synthetic workload
	// on the original platform should match the original latencies within
	// a few percent per class (the paper reports <= 6.6%).
	tr := gfsTrace(t, 4000, 603)
	m := trainOn(t, tr, Options{})
	synth, err := m.Synthesize(4000, rand.New(rand.NewSource(604)))
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := replay.Run(synth, replay.Platform{NewServer: gfs.DefaultServerHW})
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range tr.Classes() {
		orig := stats.Mean(tr.ByClass(class).Latencies())
		got := stats.Mean(replayed.ByClass(class).Latencies())
		if dev := stats.RelError(orig, got); dev > 0.15 {
			t.Errorf("class %s latency deviation %g (%g vs %g)", class, dev, orig, got)
		}
	}
}

func TestStorageLocalityPreserved(t *testing.T) {
	// The synthetic LBN stream must reproduce the original's spatial
	// locality: similar sequential fraction and similar region occupancy.
	tr := gfsTrace(t, 3000, 605)
	m := trainOn(t, tr, Options{})
	synth, err := m.Synthesize(3000, rand.New(rand.NewSource(606)))
	if err != nil {
		t.Fatal(err)
	}
	seqFrac := func(tr *trace.Trace, class string) float64 {
		sub := tr.ByClass(class)
		var prevEnd int64 = -1
		var seq, total int
		for _, r := range sub.Requests {
			for _, s := range r.SpansIn(trace.Storage) {
				if prevEnd >= 0 {
					total++
					if s.LBN == prevEnd {
						seq++
					}
				}
				prevEnd = s.LBN + (s.Bytes+4095)/4096
			}
		}
		if total == 0 {
			return 0
		}
		return float64(seq) / float64(total)
	}
	for _, class := range tr.Classes() {
		o, s := seqFrac(tr, class), seqFrac(synth, class)
		if math.Abs(o-s) > 0.1 {
			t.Errorf("class %s sequential fraction %g vs %g", class, o, s)
		}
	}
}

func TestHierarchicalStorageModel(t *testing.T) {
	tr := gfsTrace(t, 2000, 607)
	m := trainOn(t, tr, Options{Hierarchical: true})
	for _, c := range m.Classes {
		if c.Storage.Hier == nil || c.Storage.Chain != nil {
			t.Fatal("hierarchical option should build the two-level model")
		}
	}
	synth, err := m.Synthesize(1000, rand.New(rand.NewSource(608)))
	if err != nil {
		t.Fatal(err)
	}
	if err := synth.Validate(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m.Describe(), "hierarchical") {
		t.Error("describe should mention the hierarchical storage model")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.StorageRegions != 32 || o.CPUStates != 8 || o.Smoothing != 0.01 || o.HierGroups != 8 {
		t.Errorf("defaults = %+v", o)
	}
	o2 := Options{StorageRegions: 4, CPUStates: 2, Smoothing: -1}.withDefaults()
	if o2.StorageRegions != 4 || o2.CPUStates != 2 || o2.Smoothing != 0 {
		t.Errorf("custom = %+v", o2)
	}
}

func TestSynthesizeErrors(t *testing.T) {
	tr := gfsTrace(t, 500, 609)
	m := trainOn(t, tr, Options{})
	r := rand.New(rand.NewSource(1))
	if _, err := m.Synthesize(0, r); err == nil {
		t.Error("n=0 should fail")
	}
	empty := &Model{Network: m.Network}
	if _, err := empty.Synthesize(10, r); err == nil {
		t.Error("no classes should fail")
	}
	zeroW := &Model{Network: m.Network, Classes: []*ClassModel{{Name: "x", Weight: 0}}}
	if _, err := zeroW.Synthesize(10, r); err == nil {
		t.Error("zero weights should fail")
	}
}

func TestDescribe(t *testing.T) {
	tr := gfsTrace(t, 800, 610)
	m := trainOn(t, tr, Options{})
	d := m.Describe()
	for _, want := range []string{
		"KOOZA model", "Network queueing model", "time-dependency queue",
		"storage Markov model", "cpu Markov model", "memory Markov model",
		"network -> cpu -> memory -> storage -> cpu -> network",
	} {
		if !strings.Contains(d, want) {
			t.Errorf("describe missing %q:\n%s", want, d)
		}
	}
}

func TestModelComplexityGrowsWithDetail(t *testing.T) {
	// The paper's detail/complexity trade-off: more states => more
	// parameters.
	tr := gfsTrace(t, 1000, 611)
	coarse := trainOn(t, tr, Options{StorageRegions: 8, CPUStates: 4})
	fine := trainOn(t, tr, Options{StorageRegions: 64, CPUStates: 16})
	if fine.NumParams() <= coarse.NumParams() {
		t.Errorf("fine model params %d not above coarse %d", fine.NumParams(), coarse.NumParams())
	}
}

func TestSynthesizeDeterministicSeed(t *testing.T) {
	tr := gfsTrace(t, 800, 612)
	m := trainOn(t, tr, Options{})
	s1, err := m.Synthesize(200, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := m.Synthesize(200, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Error("same seed should reproduce synthesis")
	}
}

func TestMultiServerInstancing(t *testing.T) {
	cfg := gfs.DefaultConfig()
	cfg.Chunkservers = 4
	cfg.PopularitySkew = 0
	c, err := gfs.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := c.Run(gfs.RunConfig{
		Mix:      workload.Table2Mix(),
		Arrivals: workload.Poisson{Rate: 50},
		Requests: 3000,
	}, rand.New(rand.NewSource(613)))
	if err != nil {
		t.Fatal(err)
	}
	m := trainOn(t, tr, Options{})
	synth, err := m.Synthesize(3000, rand.New(rand.NewSource(614)))
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[int]int)
	for _, r := range synth.Requests {
		counts[r.Server]++
	}
	if len(counts) != 4 {
		t.Fatalf("synthetic servers = %v, want 4 servers", counts)
	}
	for s, n := range counts {
		if n < 3000/4/2 {
			t.Errorf("server %d got %d synthetic requests, want balanced", s, n)
		}
	}
}

// TestTrainAllocationFence fails if Train allocates per request again: on
// a 3000-request trace it makes about 1.1k allocations (phase paths are
// counted under reused byte keys, spans are walked in place and the
// arrival fit sorts its sample once), against 105k when every request
// rendered its phase path with fmt.Sprint and copied its spans.
func TestTrainAllocationFence(t *testing.T) {
	tr := gfsTrace(t, 3000, 5)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Train(tr, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("kooza.Train: %.0f allocations on %d requests", allocs, tr.Len())
	if allocs > 2200 {
		t.Fatalf("kooza.Train made %.0f allocations on %d requests, want <= 2200", allocs, tr.Len())
	}
}
