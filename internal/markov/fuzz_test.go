package markov

import (
	"bytes"
	"testing"

	"dcmodel/internal/spec"
	"dcmodel/internal/trace"
)

// FuzzUnmarshalAccumulator feeds arbitrary bytes to the accumulator
// decoder, which reads the counts embedded in cluster model blobs. It must
// never panic, and any blob it accepts must re-marshal to bytes that decode
// and re-marshal to the same bytes again.
func FuzzUnmarshalAccumulator(f *testing.F) {
	sp, err := spec.Resolve("webtier")
	if err != nil {
		f.Fatal(err)
	}
	compiled, err := sp.Compile(spec.Options{Requests: 200, Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	tr, err := compiled.Generate(1)
	if err != nil {
		f.Fatal(err)
	}
	// Two accumulators in the shapes the cluster model embeds: the
	// subsystem walk of each request and its storage walk over LBN regions.
	const regions = 8
	var maxLBN int64 = 1
	for _, req := range tr.Requests {
		for _, s := range req.Spans {
			maxLBN = max(maxLBN, s.LBN+1)
		}
	}
	phase, err := NewAccumulator(4, 0.01)
	if err != nil {
		f.Fatal(err)
	}
	storage, err := NewAccumulator(regions, 0)
	if err != nil {
		f.Fatal(err)
	}
	for _, req := range tr.Requests {
		var phaseSeq, storageSeq []int
		for _, s := range req.Spans {
			phaseSeq = append(phaseSeq, int(s.Subsystem))
			if s.Subsystem == trace.Storage && s.LBN >= 0 {
				storageSeq = append(storageSeq, int(s.LBN*regions/maxLBN))
			}
		}
		if err := phase.Observe(phaseSeq); err != nil {
			f.Fatal(err)
		}
		if err := storage.Observe(storageSeq); err != nil {
			f.Fatal(err)
		}
	}
	for _, a := range []*Accumulator{phase, storage} {
		blob, err := a.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := UnmarshalAccumulator(data)
		if err != nil {
			return
		}
		once, err := a.MarshalBinary()
		if err != nil {
			t.Fatalf("decoded accumulator does not marshal: %v", err)
		}
		back, err := UnmarshalAccumulator(once)
		if err != nil {
			t.Fatalf("re-marshalled accumulator does not decode: %v", err)
		}
		twice, err := back.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatal("marshal -> unmarshal -> marshal is not a fixed point")
		}
	})
}
