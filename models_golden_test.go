package dcmodel

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dcmodel/internal/inbreadth"
	"dcmodel/internal/indepth"
	"dcmodel/internal/kooza"
	"dcmodel/internal/spec"
	"dcmodel/internal/trace"
)

var updateModels = flag.Bool("update-models", false, "regenerate testdata/models.golden")

// TestTrainedModelBytesGolden pins the serialized bytes of every trained
// model family on the Table 2 mix and the six spec presets: any change to
// training that alters a model, even in its last bit, changes a digest.
// Each model's synthesized trace is pinned the same way (the "-synth"
// lines), so a synthesis change that alters a single draw changes a digest
// too; the request count is not slab-aligned, so the final partial span
// reservation is covered.
// Regenerate with `go test -run TestTrainedModelBytesGolden -update-models .`
// only when a model change is intended.
func TestTrainedModelBytesGolden(t *testing.T) {
	type input struct {
		name string
		tr   *trace.Trace
	}
	table2, err := Simulate(DefaultGFSConfig(), GFSRun{
		RunConfig: RunConfig{Mix: Table2Mix(), Requests: 4000, Seed: 7},
		Rate:      20,
	})
	if err != nil {
		t.Fatal(err)
	}
	inputs := []input{{"table2", table2}}
	for i, name := range spec.Names() {
		s, err := spec.Resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := s.Compile(spec.Options{Seed: int64(100 + i)})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := c.Generate(0)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{name, tr})
	}

	var got strings.Builder
	digest := func(in, model string, save func(io.Writer) error) {
		var buf bytes.Buffer
		if err := save(&buf); err != nil {
			t.Fatalf("%s/%s: save: %v", in, model, err)
		}
		fmt.Fprintf(&got, "%s %s %x\n", in, model, sha256.Sum256(buf.Bytes()))
	}
	const synthN = 2*4096 + 1234
	synthDigest := func(in, model string, synthesize func(int, *rand.Rand) (*trace.Trace, error)) {
		digest(in, model+"-synth", func(w io.Writer) error {
			tr, err := synthesize(synthN, rand.New(rand.NewSource(5)))
			if err != nil {
				return err
			}
			return trace.WriteCSV(w, tr)
		})
	}
	for _, in := range inputs {
		km, err := kooza.Train(in.tr, kooza.Options{})
		if err != nil {
			t.Fatalf("%s: kooza: %v", in.name, err)
		}
		digest(in.name, "kooza", func(w io.Writer) error { return kooza.Save(w, km) })
		synthDigest(in.name, "kooza", km.Synthesize)
		bm, err := inbreadth.Train(in.tr, inbreadth.Options{})
		if err != nil {
			t.Fatalf("%s: inbreadth: %v", in.name, err)
		}
		digest(in.name, "inbreadth", func(w io.Writer) error { return inbreadth.Save(w, bm) })
		synthDigest(in.name, "inbreadth", bm.Synthesize)
		dm, err := indepth.Train(in.tr)
		if err != nil {
			t.Fatalf("%s: indepth: %v", in.name, err)
		}
		digest(in.name, "indepth", func(w io.Writer) error { return indepth.Save(w, dm) })
		synthDigest(in.name, "indepth", dm.Synthesize)
	}

	path := filepath.Join("testdata", "models.golden")
	if *updateModels {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update-models to create): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("trained model bytes differ from %s:\ngot:\n%swant:\n%s", path, got.String(), want)
	}
}
