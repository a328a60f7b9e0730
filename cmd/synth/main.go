// Command synth trains a workload model on a trace (or loads a saved
// model) and emits a synthetic workload generated from it.
//
// Usage:
//
//	synth -in trace.csv -model kooza -n 10000 > synthetic.csv
//	synth -model-file model.json -model in-depth -n 10000 > synthetic.csv
//	synth -in trace.csv -n 10000 -shards 8 -workers 4 > synthetic.csv
//	synth -spec webtier -n 10000 > synthetic.csv  # train on a spec-generated trace
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"strings"

	"dcmodel"
	"dcmodel/internal/cliflag"
	"dcmodel/internal/spec"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("synth: ")
	var (
		in        = flag.String("in", "-", "input trace (CSV, or binary trace-v2 for .dct paths; '-' for stdin)")
		specRef   = flag.String("spec", "", "generate the training trace from a workload spec (preset name or JSON/YAML file) instead of reading -in")
		modelFile = flag.String("model-file", "", "load a saved model instead of training (skips -in; -model selects the decoder)")
		modelName = flag.String("model", "kooza", "model: kooza, in-breadth or in-depth")
		n         = flag.Int("n", 4000, "number of synthetic requests")
		seed      = flag.Int64("seed", 1, "random seed")
		out       = flag.String("o", "-", "output path ('-' for stdout; .dct writes binary trace-v2)")
		replayIt  = flag.Bool("replay", false, "replay the synthetic workload on the default platform before writing (fills timing)")
		shards    = flag.Int("shards", 1, "partition synthesis into this many independently-seeded shards")
		workers   = flag.Int("workers", 0, "concurrent shards (0 = GOMAXPROCS, 1 = serial); needs -shards > 1")
	)
	flag.Parse()
	cliflag.Check(
		cliflag.Workers(*workers),
		cliflag.Shards(*shards),
		cliflag.Seed(*seed),
		cliflag.Min("n", *n, 1),
	)
	approach, err := dcmodel.ParseApproach(*modelName)
	if err != nil {
		log.Fatal(err)
	}

	var m dcmodel.Model
	if *modelFile != "" {
		f, err := os.Open(*modelFile)
		if err != nil {
			log.Fatal(err)
		}
		m, err = dcmodel.LoadModel(f, approach)
		f.Close()
		if err != nil {
			cliflag.Fatal(err)
		}
	} else {
		var tr *dcmodel.Trace
		if *specRef != "" {
			tr, err = traceFromSpec(*specRef, *seed, *workers)
		} else {
			tr, err = readTrace(*in)
		}
		if err != nil {
			cliflag.Fatal(err)
		}
		m, err = dcmodel.Train(tr, approach)
		if err != nil {
			cliflag.Fatal(err)
		}
	}

	var synth *dcmodel.Trace
	if *shards > 1 {
		synth, err = dcmodel.SynthesizeSharded(m.Synthesize, *n, *shards, *workers, *seed)
	} else {
		synth, err = m.Synthesize(*n, rand.New(rand.NewSource(*seed)))
	}
	if err != nil {
		cliflag.Fatal(err)
	}
	label := m.Approach().String()
	if *modelFile != "" {
		label += " (loaded)"
	}
	writeOut(synth, *out, label, *replayIt)
}

// writeOut optionally replays the workload for timing, then writes it.
func writeOut(synth *dcmodel.Trace, out, label string, replayIt bool) {
	var err error
	if replayIt {
		synth, err = dcmodel.Replay(synth, dcmodel.DefaultPlatform())
		if err != nil {
			log.Fatal(err)
		}
	}
	var w io.Writer = os.Stdout
	if out != "-" {
		f, err := os.Create(out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	if strings.HasSuffix(out, ".dct") {
		err = dcmodel.WriteTraceBinary(w, synth)
	} else {
		err = dcmodel.WriteTraceCSV(w, synth)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "synth: wrote %d synthetic requests (%s model)\n", synth.Len(), label)
}

// traceFromSpec generates the training trace from a workload spec. The
// explicitly-set -seed overrides the spec's seed; the spec's own request
// count is kept (the -n flag sizes the synthetic output, not the training
// input).
func traceFromSpec(ref string, seed int64, workers int) (*dcmodel.Trace, error) {
	s, err := spec.Resolve(ref)
	if err != nil {
		return nil, err
	}
	var opts spec.Options
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			opts.Seed = seed
		}
	})
	c, err := s.Compile(opts)
	if err != nil {
		return nil, err
	}
	return c.Generate(workers)
}

func readTrace(path string) (*dcmodel.Trace, error) {
	if path == "-" {
		return dcmodel.ReadTraceCSV(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".dct") {
		return dcmodel.ReadTraceBinary(f)
	}
	return dcmodel.ReadTraceCSV(f)
}
