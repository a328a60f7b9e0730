// Command perfbench is the repository's benchmark. It runs one named
// workload against the program built from this checkout, checks every
// output, and prints every metric by name and unit; the last line of its
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json.
// With --trace 1 the run measures the workload twice, untraced and then
// traced, and the metrics are the per-layer metrics, the end-to-end
// metrics of both phases and their difference (the tracing overhead).
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload repro|serve|cluster|all --seed N --seconds S --trace 0|1
//
// See README.md beside this file for the workloads and what each metric
// means.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them. The classes' p90s are per-layer metrics: on a
// shared 2-vCPU machine their run-to-run spread reached the widest bound
// the benchmark may set.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"requests_per_s", "1/s"},
	{"class_p50_ms", "ms"},
	{"slo_ok_frac", "frac"},
	{"live_heap_mb", "MB"},
}

// classes are every workload's operation classes; a workload reports 0 for
// the classes it does not run.
var classes = []string{"crossexam", "validate", "provision", "ingest", "synth", "whatif"}

// layerDefs are the per-layer metrics of the traced phase. Times of the
// repro pass are seconds per pass; times of the served workloads are
// seconds per call of the stage.
var layerDefs = []metricDef{
	{"gfs.simulate_s", "s"},
	{"spec.generate_s", "s"},
	{"kooza.train_s", "s"},
	{"kooza.train_allocs", "count"},
	{"inbreadth.train_s", "s"},
	{"inbreadth.train_allocs", "count"},
	{"indepth.train_s", "s"},
	{"indepth.train_allocs", "count"},
	{"synth.batch_s", "s"},
	{"synth.scalar_s", "s"},
	{"replay.run_s", "s"},
	{"twin.build_s", "s"},
	{"crossexam.score_s", "s"},
	{"validate.score_s", "s"},
	{"validate.table2_max_dev", "frac"},
	{"optimize.des_model_s", "s"},
	{"optimize.search_s", "s"},
	{"optimize.twin_evals", "count"},
	{"optimize.des_runs", "count"},
	{"repro.pass_s", "s"},
	{"repro.residual_frac", "frac"},

	{"serve.ingest.decode_s", "s"},
	{"serve.train.kooza_s", "s"},
	{"serve.train.inbreadth_s", "s"},
	{"serve.train.indepth_s", "s"},
	{"serve.train.ref_s", "s"},
	{"serve.refreeze_s", "s"},
	{"serve.retrains", "count"},
	{"serve.queue.wait_s", "s"},
	{"serve.synthesize_s", "s"},
	{"serve.encode_s", "s"},
	{"serve.whatif.compile_s", "s"},
	{"serve.whatif.solve_s", "s"},
	{"serve.rejected", "count"},
	{"serve.deadline_exceeded", "count"},
	{"serve.residual_ms.ingest", "ms"},
	{"serve.residual_ms.synth", "ms"},
	{"serve.residual_ms.whatif", "ms"},

	{"cluster.route_s", "s"},
	{"cluster.merges", "count"},
	{"cluster.merge_s", "s"},
	{"cluster.routed_max_over_mean", "ratio"},
	{"cluster.model.synthesize_s", "s"},
	{"cluster.worker_rejected", "count"},
	{"cluster.degraded", "count"},

	{"trace.csv.encode_s", "s"},
	{"trace.csv.decode_s", "s"},
	{"trace.v2.encode_s", "s"},
	{"trace.v2.decode_s", "s"},

	{"loadgen.lag_p90_ms", "ms"},
	{"loadgen.conn_wait_p90_ms", "ms"},
}

// perLayer is the full --trace 1 metric list: the layer metrics, the
// untraced per-class latencies, and each end-to-end metric untraced,
// traced and their difference.
func perLayer() []metricDef {
	out := append([]metricDef(nil), layerDefs...)
	for _, c := range classes {
		out = append(out, metricDef{c + "_p50_ms", "ms"}, metricDef{c + "_p90_ms", "ms"})
	}
	for _, m := range endToEnd {
		out = append(out,
			metricDef{"untraced." + m.name, m.unit},
			metricDef{"traced." + m.name, m.unit},
			metricDef{"trace_overhead." + m.name, m.unit})
	}
	return out
}

// setupRuns is how many times a run sets its workload up; setup_s is their
// median.
const setupRuns = 3

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
}

// phase is the outcome of one measured phase of a workload.
type phase struct {
	setupS       float64 // median over the set-ups of the run
	sum          summary
	requestsPerS float64
	heapMB       float64
	layers       map[string]float64 // traced phases only
	spans        any                // traced phases only: written out after the run
}

func (p *phase) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s":        p.setupS,
		"requests_per_s": p.requestsPerS,
		"class_p50_ms":   p.sum.classP50(),
		"slo_ok_frac":    p.sum.okFrac(),
		"live_heap_mb":   p.heapMB,
	}
}

type workloadFunc func(cfg runConfig, traced bool) (*phase, error)

var workloads = map[string]workloadFunc{
	"repro":   runRepro,
	"serve":   runServe,
	"cluster": runCluster,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: repro, serve, cluster or all")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds = flag.Int("seconds", 30, "length of each measured phase, in seconds")
		traced  = flag.Int("trace", 0, "1 adds a traced phase and reports the per-layer metrics")
	)
	flag.Parse()
	if *seconds < 1 || *seed < 1 || (*traced != 0 && *traced != 1) {
		fatalf("need --seconds >= 1, --seed >= 1 and --trace 0 or 1")
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	if err := run(*name, cfg, *traced == 1); err != nil {
		fatalf("%s: %v", *name, err)
	}
}

// run runs one workload, or every workload for "all", prints each one's
// report and record, and prints the result as the last line. The result
// of "all" prefixes each metric with its workload's name.
func run(name string, cfg runConfig, traced bool) error {
	e := env(name, cfg, traced)
	out, err := json.Marshal(e)
	if err != nil {
		return err
	}
	fmt.Printf("# env %s\n", out)
	names := []string{name}
	if name == "all" {
		names = []string{"repro", "serve", "cluster"}
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, n := range names {
		res, record, err := runWorkload(n, cfg, traced)
		if err != nil {
			return err
		}
		printResult(n, res)
		record["env"], record["result"] = e, res
		writeRecord(fmt.Sprintf("%s-seed%d-trace%d.json", n, cfg.seed, boolInt(traced)), record)
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, m := range res.Metrics {
			if len(names) > 1 {
				k = n + "." + k
			}
			all.Metrics[k] = m
		}
	}
	if out, err = json.Marshal(all); err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runWorkload runs one workload, untraced or untraced-then-traced, and
// returns its result plus what is written to the run's record file.
func runWorkload(name string, cfg runConfig, traced bool) (result, map[string]any, error) {
	run, ok := workloads[name]
	if !ok {
		return result{}, nil, fmt.Errorf("unknown workload %q (want repro, serve, cluster or all)", name)
	}
	plain, err := run(cfg, false)
	if err != nil {
		return result{}, nil, err
	}
	phases := []*phase{plain}
	res := result{Metrics: map[string]metric{}}
	if !traced {
		for k, v := range plain.endToEnd() {
			res.Metrics[k] = metric{v, unitOf(endToEnd, k)}
		}
	} else {
		tp, err := run(cfg, true)
		if err != nil {
			return result{}, nil, err
		}
		phases = append(phases, tp)
		values := map[string]float64{}
		for k, v := range tp.layers {
			if unitOf(layerDefs, k) == "" {
				return result{}, nil, fmt.Errorf("layer metric %s is not declared", k)
			}
			values[k] = v
		}
		for _, c := range plain.sum.classes {
			values[c.name+"_p50_ms"] = c.p50
			values[c.name+"_p90_ms"] = c.p90
		}
		pe, te := plain.endToEnd(), tp.endToEnd()
		for _, m := range endToEnd {
			values["untraced."+m.name] = pe[m.name]
			values["traced."+m.name] = te[m.name]
			values["trace_overhead."+m.name] = te[m.name] - pe[m.name]
		}
		for _, m := range perLayer() {
			res.Metrics[m.name] = metric{values[m.name], m.unit}
		}
	}
	record := map[string]any{}
	for i, p := range phases {
		res.Attempted += p.sum.attempted
		res.Failed += p.sum.failed
		key := []string{"untraced", "traced"}[i]
		printPhase(name+" "+key, p)
		record[key] = phaseRecord(p)
		if p.spans != nil {
			record["spans"] = p.spans
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, record, nil
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// env is the run's provenance, printed first and kept in the record file.
func env(name string, cfg runConfig, traced bool) map[string]any {
	return map[string]any{
		"workload":   name,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds.Seconds(),
		"trace":      traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"source":     sourceDigest(),
	}
}

// printResult prints every metric of one workload with its unit.
func printResult(name string, res result) {
	fmt.Printf("# %s: attempted %d, failed %d, correct %t\n", name, res.Attempted, res.Failed, res.Correct)
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("# %s %-32s %14.6g %s\n", name, k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}

// printPhase prints each class of a phase with its sample count, and the
// first failures of each to standard error.
func printPhase(label string, p *phase) {
	for _, c := range p.sum.classes {
		fmt.Printf("# %s class %-10s n=%-5d attempted=%-5d failed=%-3d p50=%.3fms p90=%.3fms limit=%gms\n",
			label, c.name, c.n, c.attempted, c.fail, c.p50, c.p90, c.limitMS)
		for _, f := range c.failures {
			fmt.Fprintf(os.Stderr, "perfbench: %s %s failed: %s\n", label, c.name, f)
		}
	}
	fmt.Printf("# %s generator lag p90 %.3fms, connection wait p90 %.3fms\n", label, p.sum.lagP90, p.sum.connWaitP90)
}

// phaseRecord is the full digest of a phase: per-class sample counts,
// percentiles, limits and failures, and the generator's lateness.
func phaseRecord(p *phase) map[string]any {
	cls := []map[string]any{}
	for _, c := range p.sum.classes {
		cls = append(cls, map[string]any{
			"class": c.name, "samples": c.n, "attempted": c.attempted, "failed": c.fail,
			"p50_ms": c.p50, "p90_ms": c.p90, "limit_ms": c.limitMS, "failures": c.failures,
		})
	}
	return map[string]any{
		"classes":     cls,
		"end_to_end":  p.endToEnd(),
		"layers":      p.layers,
		"samples":     p.sum.samples,
		"lag_p90_ms":  p.sum.lagP90,
		"conn_p90_ms": p.sum.connWaitP90,
	}
}

// recordDir holds the run records; it sits in the build directory so a
// checkout stays clean.
const recordDir = ".bench_build/records"

// writeRecord writes a run's record — provenance, per-class sample counts,
// metrics, samples and (traced runs) every span — once the run has ended.
func writeRecord(file string, record map[string]any) {
	out, err := json.Marshal(record)
	if err == nil {
		err = os.MkdirAll(recordDir, 0o755)
	}
	path := filepath.Join(recordDir, file)
	if err == nil {
		err = os.WriteFile(path, out, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: record not written: %v\n", err)
		return
	}
	fmt.Printf("# record %s\n", path)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// commit reads the checked-out commit from .git when the checkout is a git
// work tree; a plain copy of the sources has none.
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	ref = strings.TrimPrefix(ref, "ref: ")
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(".git/packed-refs")
	for _, line := range strings.Split(string(packed), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
			return f[0]
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources, module files and presets under the
// working directory, so a result names the code it measured even where
// the checkout carries no commit.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		switch filepath.Ext(path) {
		case ".go", ".mod", ".json", ".sh":
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", path, len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("sha256:%x", h.Sum(nil))
}
