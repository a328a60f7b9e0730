package indepth

import (
	"math/rand"
	"reflect"
	"testing"

	"dcmodel/internal/gfs"
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

func TestTrainBasics(t *testing.T) {
	tr := gfsTrace(t, 2000, 800)
	m, err := Train(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Classes) != 2 {
		t.Fatalf("classes = %d", len(m.Classes))
	}
	want := []trace.Subsystem{
		trace.Network, trace.CPU, trace.Memory, trace.Storage, trace.CPU, trace.Network,
	}
	for _, c := range m.Classes {
		if !reflect.DeepEqual(c.Phases, want) {
			t.Errorf("class %s phases = %v", c.Name, c.Phases)
		}
		if len(c.Service) != len(want) {
			t.Errorf("class %s has %d service fits", c.Name, len(c.Service))
		}
	}
	// The in-depth model is deliberately simple: far fewer parameters
	// than a KOOZA model would carry.
	if m.NumParams() > 50 {
		t.Errorf("in-depth params = %d, expected a small count", m.NumParams())
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil); err == nil {
		t.Error("nil trace should fail")
	}
	if _, err := Train(&trace.Trace{}); err == nil {
		t.Error("empty trace should fail")
	}
	bad := &trace.Trace{Requests: []trace.Request{{ID: 1, Arrival: -1}}}
	if _, err := Train(bad); err == nil {
		t.Error("invalid trace should fail")
	}
	short := &trace.Trace{Requests: []trace.Request{{ID: 1}, {ID: 2, Arrival: 1}}}
	if _, err := Train(short); err == nil {
		t.Error("too-short trace should fail")
	}
}

func TestSynthesizeLatencyGoodFeaturesMissing(t *testing.T) {
	// The in-depth signature: per-class latency is reproduced well (it
	// resamples observed service times) but the spans carry no features.
	tr := gfsTrace(t, 3000, 801)
	m, err := Train(tr)
	if err != nil {
		t.Fatal(err)
	}
	synth, err := m.Synthesize(3000, rand.New(rand.NewSource(802)))
	if err != nil {
		t.Fatal(err)
	}
	if err := synth.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, class := range tr.Classes() {
		o := stats.Mean(tr.ByClass(class).Latencies())
		s := stats.Mean(synth.ByClass(class).Latencies())
		if dev := stats.RelError(o, s); dev > 0.1 {
			t.Errorf("class %s latency deviation %g (%g vs %g)", class, dev, o, s)
		}
	}
	// Features absent.
	for _, r := range synth.Requests {
		for _, s := range r.Spans {
			if s.Bytes != 0 || s.LBN != 0 || s.Util != 0 {
				t.Fatalf("in-depth synthetic span carries features: %+v", s)
			}
		}
	}
	// Phase structure preserved.
	want := []trace.Subsystem{
		trace.Network, trace.CPU, trace.Memory, trace.Storage, trace.CPU, trace.Network,
	}
	for _, r := range synth.Requests {
		if !reflect.DeepEqual(r.Phases(), want) {
			t.Fatalf("synthetic phases = %v", r.Phases())
		}
	}
}

func TestPredictMeanLatency(t *testing.T) {
	// Use a lightly loaded trace: the analytic prediction ignores
	// queueing, so it is only accurate when contention is negligible.
	c, err := gfs.NewCluster(gfs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := c.Run(gfs.RunConfig{
		Mix:      workload.Table2Mix(),
		Arrivals: workload.Poisson{Rate: 2},
		Requests: 2000,
	}, rand.New(rand.NewSource(803)))
	if err != nil {
		t.Fatal(err)
	}
	m, err := Train(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range tr.Classes() {
		pred, err := m.PredictMeanLatency(class)
		if err != nil {
			t.Fatal(err)
		}
		// At low load (no queueing) the sum of phase services is close to
		// the true latency.
		o := stats.Mean(tr.ByClass(class).Latencies())
		if dev := stats.RelError(o, pred); dev > 0.2 {
			t.Errorf("class %s predicted %g vs %g (dev %g)", class, pred, o, dev)
		}
	}
	if _, err := m.PredictMeanLatency("nope"); err == nil {
		t.Error("unknown class should fail")
	}
}

func TestSynthesizeErrors(t *testing.T) {
	tr := gfsTrace(t, 500, 804)
	m, err := Train(tr)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	if _, err := m.Synthesize(0, r); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := (&Model{Interarrival: m.Interarrival}).Synthesize(5, r); err == nil {
		t.Error("no classes should fail")
	}
	zeroW := &Model{Interarrival: m.Interarrival, Classes: []*ClassModel{{Name: "x"}}}
	if _, err := zeroW.Synthesize(5, r); err == nil {
		t.Error("zero weights should fail")
	}
}

func TestArrivalRatePreserved(t *testing.T) {
	tr := gfsTrace(t, 3000, 805)
	m, err := Train(tr)
	if err != nil {
		t.Fatal(err)
	}
	synth, err := m.Synthesize(3000, rand.New(rand.NewSource(806)))
	if err != nil {
		t.Fatal(err)
	}
	origRate := 1 / stats.Mean(tr.Interarrivals())
	synthRate := 1 / stats.Mean(synth.Interarrivals())
	if dev := stats.RelError(origRate, synthRate); dev > 0.1 {
		t.Errorf("arrival rate deviation %g", dev)
	}
}

// tiedTrace builds one class in which every path occurs n times, the
// paths interleaved in arrival order.
func tiedTrace(n int, paths ...[]trace.Subsystem) *trace.Trace {
	tr := &trace.Trace{}
	for i := 0; i < n; i++ {
		for _, p := range paths {
			id := len(tr.Requests)
			arrival := float64(id)*0.01 + 0.003*float64(id%3)
			r := trace.Request{ID: int64(id), Class: "tied", Arrival: arrival}
			for j, sub := range p {
				r.Spans = append(r.Spans, trace.Span{
					Subsystem: sub,
					Start:     arrival + 0.001*float64(j),
					Duration:  0.001 * float64(1+id%4),
				})
			}
			tr.Requests = append(tr.Requests, r)
		}
	}
	return tr
}

// TestModalPathTieBreakBySprintOrder pins the equal-count tie-break: the
// path whose fmt.Sprint rendering sorts first wins, even where ordering
// by the subsystems' numeric values would pick the other path.
func TestModalPathTieBreakBySprintOrder(t *testing.T) {
	nc := []trace.Subsystem{trace.Network, trace.CPU}
	cn := []trace.Subsystem{trace.CPU, trace.Network}
	c := []trace.Subsystem{trace.CPU}
	for _, tc := range []struct {
		paths [][]trace.Subsystem
		want  []trace.Subsystem
	}{
		{[][]trace.Subsystem{nc, cn}, cn}, // "[cpu network]" < "[network cpu]"
		{[][]trace.Subsystem{cn, nc}, cn},
		{[][]trace.Subsystem{c, cn}, cn}, // "[cpu network]" < "[cpu]"
	} {
		m, err := Train(tiedTrace(5, tc.paths...))
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Classes[0].Phases; !reflect.DeepEqual(got, tc.want) {
			t.Errorf("paths %v: modal phases = %v, want %v", tc.paths, got, tc.want)
		}
	}
}
