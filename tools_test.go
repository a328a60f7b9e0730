package dcmodel

import (
	"math/rand"
	"testing"
)

func TestTraceRequestsFacade(t *testing.T) {
	tr := simulate(t, 1000, 20, 20)
	var c TraceCollector
	started, sampled, err := RecordRequests(tr, 100, &c)
	if err != nil {
		t.Fatal(err)
	}
	if started != 1000 || sampled != 10 {
		t.Errorf("sampling %d/%d", started, sampled)
	}
	trees := c.Trees()
	if len(trees) != 10 {
		t.Errorf("trees = %d", len(trees))
	}
	for _, tree := range trees {
		if tree.Latency() <= 0 {
			t.Error("sampled tree has zero latency")
		}
	}
}

func TestCollectProfileFacade(t *testing.T) {
	tr := simulate(t, 1500, 20, 21)
	p, err := CollectProfile(tr, ProfileOptions{Period: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Machines) != 1 || len(p.Classes) != 2 {
		t.Errorf("profile shape: %d machines, %d classes", len(p.Machines), len(p.Classes))
	}
	if p.Machines[0].Busy[Storage] <= 0 {
		t.Error("no storage activity profiled")
	}
}

func TestCharacterizeSQSFacade(t *testing.T) {
	tr := simulate(t, 2000, 20, 22)
	m, err := CharacterizeSQS(tr, 5000, 23)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rate < 15 || m.Rate > 25 {
		t.Errorf("rate = %g", m.Rate)
	}
	res, err := m.Evaluate(4, 5000, rand.New(rand.NewSource(24)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Servers != 4 || res.MeanResponse <= 0 {
		t.Errorf("result = %+v", res)
	}
	if _, err := CharacterizeSQS(&Trace{}, 100, 1); err == nil {
		t.Error("empty trace should fail")
	}
}

func TestAnalyzeFeaturesFacade(t *testing.T) {
	tr := simulate(t, 1000, 20, 26)
	rep, err := AnalyzeFeatures(tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Components95 < 1 || rep.Components95 > 8 {
		t.Errorf("components = %d", rep.Components95)
	}
	if _, err := AnalyzeFeatures(&Trace{}); err == nil {
		t.Error("empty trace should fail")
	}
}

func TestEnergyFacade(t *testing.T) {
	tr := simulate(t, 1000, 20, 25)
	big, err := ServerEnergy(tr, 0, BigCorePower())
	if err != nil {
		t.Fatal(err)
	}
	small, err := ServerEnergy(tr, 0, SmallCorePower())
	if err != nil {
		t.Fatal(err)
	}
	if small.TotalJ >= big.TotalJ {
		t.Error("small-core should draw less energy")
	}
	cluster, err := ClusterEnergy(tr, BigCorePower())
	if err != nil {
		t.Fatal(err)
	}
	if cluster.Requests != 1000 {
		t.Errorf("cluster requests = %d", cluster.Requests)
	}
}
