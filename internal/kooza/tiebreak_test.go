package kooza

import (
	"fmt"
	"reflect"
	"testing"

	"dcmodel/internal/trace"
)

// tiedPaths are one class's phase paths, tied in count pairwise. Each tie
// is chosen so that ordering paths by the subsystems' numeric values would
// pick the other path than ordering them by their fmt.Sprint rendering,
// which is the contract: "[cpu network ...]" sorts before
// "[network cpu ...]", and "[... storage network cpu]" before
// "[... storage]".
var tiedPaths = []struct {
	phases []trace.Subsystem
	n      int
}{
	{[]trace.Subsystem{trace.Network, trace.CPU, trace.Memory, trace.Storage, trace.Network}, 8},
	{[]trace.Subsystem{trace.CPU, trace.Network, trace.Memory, trace.Storage, trace.Network}, 8},
	{[]trace.Subsystem{trace.Network, trace.CPU, trace.Memory, trace.Storage}, 4},
	{[]trace.Subsystem{trace.Network, trace.CPU, trace.Memory, trace.Storage, trace.Network, trace.CPU}, 4},
}

// tiedTrace interleaves the tiedPaths requests in one class.
func tiedTrace() *trace.Trace {
	tr := &trace.Trace{}
	id := 0
	for i := 0; i < 8; i++ {
		for _, p := range tiedPaths {
			if i >= p.n {
				continue
			}
			arrival := float64(id)*0.01 + 0.003*float64(id%3)
			r := trace.Request{ID: int64(id), Class: "tied", Arrival: arrival}
			for j, sub := range p.phases {
				r.Spans = append(r.Spans, trace.Span{
					Subsystem: sub,
					Start:     arrival + 0.001*float64(j),
					Duration:  0.001,
					Op:        trace.OpRead,
					Bytes:     int64(4096 * (1 + id%3)),
					LBN:       int64(16 * id),
					Bank:      id % 4,
					Util:      0.5 + 0.01*float64(id%10),
				})
			}
			tr.Requests = append(tr.Requests, r)
			id++
		}
	}
	return tr
}

func TestPhaseQueueTieBreakBySprintOrder(t *testing.T) {
	m := trainOn(t, tiedTrace(), Options{})
	cm, err := m.Class("tied")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"[cpu network memory storage network]",
		"[network cpu memory storage network]",
		"[network cpu memory storage network cpu]",
		"[network cpu memory storage]",
	}
	var got []string
	for _, q := range cm.Queues {
		got = append(got, fmt.Sprint(q.Phases))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("queue order = %q, want %q", got, want)
	}
	if s := fmt.Sprint(cm.Phases); s != want[0] {
		t.Fatalf("modal phases = %s, want %s", s, want[0])
	}
}
