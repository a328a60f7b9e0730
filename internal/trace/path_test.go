package trace

import "testing"

func pathReq(subs ...Subsystem) Request {
	r := Request{}
	for _, s := range subs {
		r.Spans = append(r.Spans, Span{Subsystem: s})
	}
	return r
}

func TestPathCounterRanksAndIndexes(t *testing.T) {
	var c PathCounter
	// Out-of-range subsystems must not share a key with in-range ones:
	// 256 would truncate to the byte of Network.
	for _, r := range []Request{
		pathReq(Network),
		pathReq(Subsystem(256)),
		pathReq(Network, CPU),
		pathReq(Subsystem(256)),
		pathReq(Network, CPU),
		pathReq(Network, CPU),
	} {
		c.Add(r)
	}
	if i, ok := c.Index(pathReq(Network, CPU)); !ok || i != 2 {
		t.Fatalf("first-seen index of [network cpu] = %d, %v; want 2, true", i, ok)
	}
	ranked := c.Ranked()
	want := []struct {
		req  Request
		name string
		n    int
	}{
		{pathReq(Network, CPU), "[network cpu]", 3},
		{pathReq(Subsystem(256)), "[subsystem(256)]", 2},
		{pathReq(Network), "[network]", 1},
	}
	if len(ranked) != len(want) {
		t.Fatalf("ranked %d paths, want %d", len(ranked), len(want))
	}
	for i, w := range want {
		if got := ranked[i].sprint(); got != w.name || ranked[i].N != w.n {
			t.Errorf("rank %d = %s x%d, want %s x%d", i, got, ranked[i].N, w.name, w.n)
		}
		if j, ok := c.Index(w.req); !ok || j != i {
			t.Errorf("Index of %s = %d, %v; want its rank %d", w.name, j, ok, i)
		}
	}
	if _, ok := c.Index(pathReq(CPU)); ok {
		t.Error("Index found a path that was never counted")
	}
}
