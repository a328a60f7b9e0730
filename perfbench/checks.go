package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"dcmodel"
	"dcmodel/internal/trace"
)

// checkTrace rejects a decoded trace that is not a well-formed workload of
// exactly n requests: ids unique, arrivals in order, every request with at
// least one span and no negative size or time.
func checkTrace(tr *dcmodel.Trace, n int) error {
	if tr.Len() != n {
		return fmt.Errorf("trace holds %d requests, want %d", tr.Len(), n)
	}
	seen := make(map[int64]bool, n)
	last := -1.0
	for _, r := range tr.Requests {
		if seen[r.ID] {
			return fmt.Errorf("request id %d repeats", r.ID)
		}
		seen[r.ID] = true
		if r.Arrival < last {
			return fmt.Errorf("request %d arrives at %g, before %g", r.ID, r.Arrival, last)
		}
		last = r.Arrival
		if len(r.Spans) == 0 {
			return fmt.Errorf("request %d has no spans", r.ID)
		}
		for _, s := range r.Spans {
			if s.Bytes < 0 || s.Duration < 0 || s.Start < 0 {
				return fmt.Errorf("request %d has a span with negative fields", r.ID)
			}
		}
	}
	return nil
}

// decodeTrace decodes a trace body in its codec, "csv" or "binary".
func decodeTrace(body []byte, format string) (*dcmodel.Trace, error) {
	switch format {
	case "csv":
		return trace.ReadCSV(bytes.NewReader(body))
	case "binary":
		return trace.ReadBinary(bytes.NewReader(body))
	}
	return nil, fmt.Errorf("unknown trace format %q", format)
}

// checkSynthBody rejects a synthesize answer that does not decode, in its
// codec, to exactly n well-formed requests. It returns how long the
// decoding took.
func checkSynthBody(body []byte, format string, n int) (time.Duration, error) {
	t := time.Now()
	tr, err := decodeTrace(body, format)
	took := time.Since(t)
	if err != nil {
		return took, fmt.Errorf("synthesize %s body: %w", format, err)
	}
	if err := checkTrace(tr, n); err != nil {
		return took, fmt.Errorf("synthesize %s body: %w", format, err)
	}
	return took, nil
}

// whatIfAnswer is the part of a /v1/whatif answer the check reads.
type whatIfAnswer struct {
	Model string `json:"model"`
	Query struct {
		LoadFactor  float64 `json:"load_factor"`
		ServersDown int     `json:"servers_down"`
	} `json:"query"`
	Answer *struct {
		Solver       string  `json:"solver"`
		LambdaPerSec float64 `json:"lambda_per_sec"`
		Servers      int     `json:"servers"`
	} `json:"answer"`
}

// checkWhatIfBody rejects a what-if answer that carries no answer or does
// not echo the query that was sent.
func checkWhatIfBody(body []byte, loadFactor float64, serversDown int) error {
	var a whatIfAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("what-if body: %w", err)
	}
	if a.Answer == nil || a.Answer.Solver == "" || a.Answer.Servers < 1 || !(a.Answer.LambdaPerSec > 0) {
		return fmt.Errorf("what-if body carries no answer: %.200s", body)
	}
	if a.Query.LoadFactor != loadFactor || a.Query.ServersDown != serversDown {
		return fmt.Errorf("what-if answer is for load %g down %d, sent load %g down %d",
			a.Query.LoadFactor, a.Query.ServersDown, loadFactor, serversDown)
	}
	return nil
}

// checkIngestBody rejects an ingest answer that did not take the whole
// body of n requests.
func checkIngestBody(body []byte, n int) error {
	var a struct {
		Ingested *int `json:"ingested"`
	}
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("ingest body: %w", err)
	}
	if a.Ingested == nil || *a.Ingested != n {
		return fmt.Errorf("ingest took %s, sent %d requests", string(body), n)
	}
	return nil
}

// do sends one request and returns the answer body, failing on any status
// but 200.
func do(ctx context.Context, client *http.Client, method, url, contentType string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: read answer: %w", method, url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %.200s", method, url, resp.StatusCode, out)
	}
	return out, nil
}
