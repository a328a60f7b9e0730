package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// A handler that stalls once must show in the latency of every request that
// was due during the stall, not only in the stalled request's own.
func TestOpenLoopLatencyIncludesStall(t *testing.T) {
	const stall = 300 * time.Millisecond
	var mu sync.Mutex
	first := true
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if first {
			first = false
			time.Sleep(stall)
		}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()

	const n = 20
	const gap = 10 * time.Millisecond
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{
			class: fmt.Sprintf("op%02d", i),
			due:   time.Duration(i) * gap,
			send: func(ctx context.Context, c *http.Client) ([]byte, error) {
				return do(ctx, c, http.MethodGet, srv.URL, "", nil)
			},
			check: func([]byte) (int, error) { return 1, nil },
		}
	}
	rec := newRecorder()
	client := newClient(2)
	defer client.CloseIdleConnections()
	openLoop(context.Background(), client, 2, ops, rec)

	// Every request was due before the stall ended, so none finished before
	// it did: the latency counted from each one's due time covers what was
	// left of the stall. A closed loop timing from the send would not.
	const slack = 20 * time.Millisecond
	for i := 0; i < n; i++ {
		c := rec.classes[fmt.Sprintf("op%02d", i)]
		if c.attempted != 1 || c.failed != 0 {
			t.Fatalf("op %d: attempted %d, failed %d", i, c.attempted, c.failed)
		}
		due := time.Duration(i) * gap
		if want := ms(stall - due - slack); c.latMS[0] < want {
			t.Errorf("op %d due at %v: latency %.1fms, want at least %.1fms", i, due, c.latMS[0], want)
		}
	}
}

// The open loop books a request whose answer fails its check as failed,
// and keeps the check out of the latency.
func TestOpenLoopCheckFailureCounts(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("x")) }))
	defer srv.Close()
	ops := []op{{
		class: "bad",
		send: func(ctx context.Context, c *http.Client) ([]byte, error) {
			return do(ctx, c, http.MethodGet, srv.URL, "", nil)
		},
		check: func([]byte) (int, error) {
			time.Sleep(50 * time.Millisecond)
			return 0, fmt.Errorf("wrong answer")
		},
	}, {
		class: "good",
		due:   time.Millisecond,
		send: func(ctx context.Context, c *http.Client) ([]byte, error) {
			return do(ctx, c, http.MethodGet, srv.URL, "", nil)
		},
		check: func([]byte) (int, error) { time.Sleep(50 * time.Millisecond); return 3, nil },
	}}
	rec := newRecorder()
	client := newClient(1)
	defer client.CloseIdleConnections()
	openLoop(context.Background(), client, 1, ops, rec)
	if c := rec.classes["bad"]; c.failed != 1 || c.withinLimit != 0 {
		t.Errorf("bad answer: failed %d, within limit %d; want 1, 0", c.failed, c.withinLimit)
	}
	c := rec.classes["good"]
	if c.failed != 0 || c.requests != 3 {
		t.Fatalf("good answer: failed %d, requests %d; want 0, 3", c.failed, c.requests)
	}
	if c.latMS[0] >= 50 {
		t.Errorf("latency %.1fms includes the other request's check", c.latMS[0])
	}
}

func TestPoissonTimesFixedCountSorted(t *testing.T) {
	a := poissonTimes(15, 30*time.Second, newRand(1))
	b := poissonTimes(15, 30*time.Second, newRand(2))
	if len(a) != 450 || len(b) != 450 {
		t.Fatalf("counts %d, %d; want 450 on every seed", len(a), len(b))
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 30*time.Second {
			t.Fatalf("time %d = %v out of order or range", i, a[i])
		}
	}
	if a[0] == b[0] {
		t.Errorf("two seeds gave the same schedule")
	}
}
