package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"dcmodel/internal/spec"
	"dcmodel/internal/trace"
)

func checkSynth(body []byte, format string, n int) error {
	_, err := checkSynthBody(body, format, n)
	return err
}

// synthBodies returns one trace of n requests encoded in both codecs.
func synthBodies(t *testing.T, n int) map[string][]byte {
	t.Helper()
	s, err := spec.Resolve("webtier")
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Compile(spec.Options{Seed: 3, Requests: n})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := c.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	var csv, bin bytes.Buffer
	if err := trace.WriteCSV(&csv, tr); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteBinary(&bin, tr); err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{"csv": csv.Bytes(), "binary": bin.Bytes()}
}

func TestSynthCheckerRejectsTruncatedBody(t *testing.T) {
	const n = 300
	for format, body := range synthBodies(t, n) {
		if err := checkSynth(body, format, n); err != nil {
			t.Fatalf("%s: intact body rejected: %v", format, err)
		}
		if err := checkSynth(body, format, n+1); err == nil {
			t.Errorf("%s: body of %d requests accepted as %d", format, n, n+1)
		}
		for _, cut := range []int{1, 7, len(body) / 3, len(body) / 2, len(body) - 7} {
			if err := checkSynth(body[:cut], format, n); err == nil {
				t.Errorf("%s: body cut to %d of %d bytes accepted", format, cut, len(body))
			}
		}
	}
}

func TestSynthCheckerRejectsCorruptBody(t *testing.T) {
	const n = 300
	bodies := synthBodies(t, n)

	bin := append([]byte(nil), bodies["binary"]...)
	bin[0] ^= 0xff // the magic
	if err := checkSynth(bin, "binary", n); err == nil {
		t.Error("binary body with a corrupt header accepted")
	}
	bin = append([]byte(nil), bodies["binary"]...)
	for i := len(bin) / 2; i < len(bin)/2+16; i++ {
		bin[i] = 0xff // a run of varint continuation bytes
	}
	if err := checkSynth(bin, "binary", n); err == nil {
		t.Error("binary body with corrupt columns accepted")
	}

	// setField rewrites one column of the CSV body's middle row.
	setField := func(col int, value string) []byte {
		lines := bytes.Split(bodies["csv"], []byte("\n"))
		mid := len(lines) / 2
		fields := bytes.Split(lines[mid], []byte(","))
		fields[col] = []byte(value)
		lines[mid] = bytes.Join(fields, []byte(","))
		return bytes.Join(lines, []byte("\n"))
	}
	if err := checkSynth(setField(0, "x"), "csv", n); err == nil {
		t.Error("CSV body with a garbled request id accepted")
	}
	if err := checkSynth(setField(8, "-4096"), "csv", n); err == nil {
		t.Error("CSV body with a negative span size accepted")
	}
}

func TestWhatIfAndIngestCheckers(t *testing.T) {
	good := []byte(`{"model":"kooza","trained_on":8192,"query":{"load_factor":1.5,"servers_down":1},` +
		`"answer":{"approach":"KOOZA","solver":"jackson","lambda_per_sec":20,"servers":3}}`)
	if err := checkWhatIfBody(good, 1.5, 1); err != nil {
		t.Fatalf("good what-if answer rejected: %v", err)
	}
	if err := checkWhatIfBody(good[:len(good)/2], 1.5, 1); err == nil {
		t.Error("truncated what-if answer accepted")
	}
	if err := checkWhatIfBody(good, 2, 1); err == nil {
		t.Error("what-if answer to another query accepted")
	}
	if err := checkWhatIfBody([]byte(`{"model":"kooza","query":{"load_factor":1.5,"servers_down":1}}`), 1.5, 1); err == nil {
		t.Error("what-if body without an answer accepted")
	}
	if err := checkIngestBody([]byte(`{"ingested":512,"retrained":false}`), 512); err != nil {
		t.Errorf("full ingest rejected: %v", err)
	}
	if err := checkIngestBody([]byte(`{"ingested":256,"error":"decode"}`), 512); err == nil {
		t.Error("partial ingest accepted")
	}
}

// BENCHMARK.json must list exactly the metrics the benchmark prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer())
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
}
