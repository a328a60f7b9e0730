package dcmodel

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestTrainFacadeAllApproaches: the unified Train entry point produces a
// working Model for each approach, and the interface surface (Approach,
// Synthesize, Characterize, NumParams) is coherent.
func TestTrainFacadeAllApproaches(t *testing.T) {
	tr := simulate(t, 1500, 20, 61)
	for _, a := range []Approach{Kooza, InBreadth, InDepth} {
		m, err := Train(tr, a)
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if m.Approach() != a {
			t.Errorf("%s: Approach() = %s", a, m.Approach())
		}
		if m.NumParams() <= 0 {
			t.Errorf("%s: NumParams() = %d", a, m.NumParams())
		}
		if !strings.Contains(m.Characterize(), "model") {
			t.Errorf("%s: Characterize() = %q", a, m.Characterize())
		}
		synth, err := m.Synthesize(300, rand.New(rand.NewSource(62)))
		if err != nil {
			t.Fatalf("%s: synthesize: %v", a, err)
		}
		if synth.Len() != 300 {
			t.Errorf("%s: synthesized %d requests", a, synth.Len())
		}
	}
}

// TestModelSaveLoadRoundTrip: Model.Save + LoadModel is behaviorally
// lossless for every approach — the loaded model synthesizes the identical
// trace for the same seed.
func TestModelSaveLoadRoundTrip(t *testing.T) {
	tr := simulate(t, 1500, 20, 63)
	for _, a := range []Approach{Kooza, InBreadth, InDepth} {
		m, err := Train(tr, a)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatalf("%s: save: %v", a, err)
		}
		loaded, err := LoadModel(&buf, a)
		if err != nil {
			t.Fatalf("%s: load: %v", a, err)
		}
		if loaded.Approach() != a {
			t.Errorf("%s: loaded Approach() = %s", a, loaded.Approach())
		}
		want, err := m.Synthesize(250, rand.New(rand.NewSource(64)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Synthesize(250, rand.New(rand.NewSource(64)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: loaded model synthesizes differently", a)
		}
	}
}

// TestTrainOptionsReachTrainers: shared options change the trained model
// for the approaches that consume them.
func TestTrainOptionsReachTrainers(t *testing.T) {
	tr := simulate(t, 1500, 20, 65)
	narrow, err := Train(tr, Kooza, WithStorageRegions(8))
	if err != nil {
		t.Fatal(err)
	}
	wide, err := Train(tr, Kooza, WithStorageRegions(64))
	if err != nil {
		t.Fatal(err)
	}
	if narrow.NumParams() >= wide.NumParams() {
		t.Errorf("8-region model has %d params, 64-region has %d — knob not applied",
			narrow.NumParams(), wide.NumParams())
	}
	// The full-struct override wins over earlier shared options.
	hier, err := Train(tr, Kooza, WithStorageRegions(64),
		WithKoozaOptions(KoozaOptions{Hierarchical: true}))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(hier.Characterize(), "hierarchical") {
		t.Error("WithKoozaOptions override did not reach the trainer")
	}
}

func TestParseApproach(t *testing.T) {
	cases := map[string]Approach{
		"kooza": Kooza, "KOOZA": Kooza,
		"in-breadth": InBreadth, "inbreadth": InBreadth, "In-Breadth": InBreadth,
		"in-depth": InDepth, "indepth": InDepth,
	}
	for s, want := range cases {
		got, err := ParseApproach(s)
		if err != nil || got != want {
			t.Errorf("ParseApproach(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseApproach("markov"); err == nil {
		t.Error("unknown approach accepted")
	}
	for _, a := range []Approach{Kooza, InBreadth, InDepth} {
		back, err := ParseApproach(a.String())
		if err != nil || back != a {
			t.Errorf("String/Parse round trip broken for %v", a)
		}
	}
}

// TestSentinelErrors: the facade's error values flow out of real failures
// and are matchable with errors.Is.
func TestSentinelErrors(t *testing.T) {
	if _, err := Train(&Trace{}, Kooza); !errors.Is(err, ErrEmptyTrace) {
		t.Errorf("training on empty trace: got %v, want ErrEmptyTrace", err)
	}
	if _, err := Train(nil, Approach(99)); !errors.Is(err, ErrBadConfig) {
		t.Errorf("unknown approach: got %v, want ErrBadConfig", err)
	}
	var buf bytes.Buffer
	if err := (koozaTrained{&KoozaModel{}}).Save(&buf); !errors.Is(err, ErrModelNotTrained) {
		t.Errorf("saving untrained model: got %v, want ErrModelNotTrained", err)
	}
	if _, err := CrossExamine(&Trace{}, DefaultPlatform(), CrossExamOptions{}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("cross-exam without Requests: got %v, want ErrBadConfig", err)
	}
	run := GFSRun{RunConfig: RunConfig{Mix: Table2Mix(), Requests: 10}}
	if _, err := Simulate(DefaultGFSConfig(), run); !errors.Is(err, ErrBadConfig) {
		t.Errorf("simulate without rate: got %v, want ErrBadConfig", err)
	}
}

// TestSimulateWithFaultsFacade: arming RunConfig.Faults through the facade
// yields an annotated trace, deterministically, and stays worker-count
// independent in sharded mode.
func TestSimulateWithFaultsFacade(t *testing.T) {
	cfg := DefaultGFSConfig()
	cfg.Chunkservers = 4
	cfg.Replication = 3
	run := GFSRun{
		RunConfig: RunConfig{
			Mix:      Table2Mix(),
			Requests: 600,
			Seed:     70,
			Faults:   &FaultConfig{MTBF: 2, MTTR: 0.5, Seed: 7},
		},
		Rate: 40,
	}
	tr, err := Simulate(cfg, run)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	annotated := 0
	for _, r := range tr.Requests {
		if r.Retries > 0 {
			annotated++
		}
	}
	if annotated == 0 {
		t.Fatal("no retry annotations under MTBF 2s / MTTR 0.5s")
	}

	run.Shards, run.Workers = 4, 1
	serial, err := Simulate(cfg, run)
	if err != nil {
		t.Fatal(err)
	}
	run.Workers = 8
	parallel, err := Simulate(cfg, run)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("faulty sharded facade run depends on worker count")
	}

	if _, err := NewFaultSchedule(FaultConfig{MTBF: -1, MTTR: 1}, 2, 0); !errors.Is(err, ErrBadConfig) {
		t.Errorf("NewFaultSchedule accepted a negative MTBF: %v", err)
	}
	sched, err := NewFaultSchedule(*run.Faults, cfg.Chunkservers, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Servers() != cfg.Chunkservers {
		t.Errorf("schedule covers %d servers, want %d", sched.Servers(), cfg.Chunkservers)
	}
}
