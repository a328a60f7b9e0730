package cluster

import (
	"bytes"
	"testing"
)

// FuzzUnmarshalModel feeds arbitrary bytes to the decoder that reads model
// blobs from other cluster nodes. It must never panic, and any blob it
// accepts must re-marshal to bytes that decode and re-marshal to the same
// bytes again.
//
// The seeds use few storage regions: the blob grows with the square of the
// region count, and the fuzzer minimizes every input that finds new
// coverage, which at the default 32 regions (13 KB) takes most of a short
// run. The decoder's paths do not depend on the region count.
func FuzzUnmarshalModel(f *testing.F) {
	for _, seed := range []int64{3, 5} {
		for _, regions := range []int{2, 4} {
			m, err := NewModel(ModelConfig{StorageRegions: regions, DiskBlocks: 1 << 10})
			if err != nil {
				f.Fatal(err)
			}
			m.ObserveTrace(testTrace(f, 200, seed))
			blob, err := m.MarshalBinary()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(blob)
		}
	}
	empty, err := NewModel(ModelConfig{StorageRegions: 2})
	if err != nil {
		f.Fatal(err)
	}
	blob, err := empty.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:25])

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := UnmarshalModel(data)
		if err != nil {
			return
		}
		once, err := m.MarshalBinary()
		if err != nil {
			t.Fatalf("decoded model does not marshal: %v", err)
		}
		back, err := UnmarshalModel(once)
		if err != nil {
			t.Fatalf("re-marshalled model does not decode: %v", err)
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
