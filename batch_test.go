package dcmodel

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestSynthesizeBatchMatchesScalar pins the deprecated SynthesizeBatch
// facade alias for all three model families: same seed, it emits a trace
// byte-identical (via the canonical CSV form) to Synthesize, and the RNG
// streams stay in lockstep afterwards. The synthesis loop itself is pinned
// by the "-synth" digests of TestTrainedModelBytesGolden.
func TestSynthesizeBatchMatchesScalar(t *testing.T) {
	tr := simulate(t, 1500, 20, 11)
	for _, a := range []Approach{Kooza, InBreadth, InDepth} {
		t.Run(a.String(), func(t *testing.T) {
			m, err := Train(tr, a)
			if err != nil {
				t.Fatal(err)
			}
			// A non-slab-aligned n exercises the final partial reservation.
			const n = 2*4096 + 1234
			r1 := rand.New(rand.NewSource(5))
			scalar, err := m.Synthesize(n, r1)
			if err != nil {
				t.Fatal(err)
			}
			r2 := rand.New(rand.NewSource(5))
			batch, err := m.SynthesizeBatch(n, r2)
			if err != nil {
				t.Fatal(err)
			}
			var bs, bb bytes.Buffer
			if err := WriteTraceCSV(&bs, scalar); err != nil {
				t.Fatal(err)
			}
			if err := WriteTraceCSV(&bb, batch); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bs.Bytes(), bb.Bytes()) {
				t.Fatal("SynthesizeBatch trace differs from Synthesize at the same seed")
			}
			if r1.Float64() != r2.Float64() {
				t.Fatal("RNG streams diverged after SynthesizeBatch")
			}
		})
	}
}

// TestSynthesizeBatchConcurrent drives concurrent Synthesize calls (the one
// synthesis loop, which SynthesizeBatch aliases) on one shared model under
// -race: the model must stay read-only while slabs of spans are reserved
// per call.
func TestSynthesizeBatchConcurrent(t *testing.T) {
	tr := simulate(t, 1000, 20, 12)
	for _, a := range []Approach{Kooza, InBreadth, InDepth} {
		m, err := Train(tr, a)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				if _, err := m.Synthesize(3000, rand.New(rand.NewSource(seed))); err != nil {
					errs <- fmt.Errorf("%v seed %d: %w", a, seed, err)
				}
			}(int64(w))
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}
}

// TestSynthesizeBatchErrors: the deprecated alias validates like Synthesize.
func TestSynthesizeBatchErrors(t *testing.T) {
	tr := simulate(t, 500, 20, 13)
	for _, a := range []Approach{Kooza, InBreadth, InDepth} {
		m, err := Train(tr, a)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.SynthesizeBatch(0, rand.New(rand.NewSource(1))); err == nil {
			t.Errorf("%v: SynthesizeBatch(0) succeeded", a)
		}
	}
}
