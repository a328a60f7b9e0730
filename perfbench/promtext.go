package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// scrape reads a /metrics page into series -> value, keyed by the series
// exactly as printed, labels included: `name{label="v"}`.
func scrape(ctx context.Context, client *http.Client, url string) (map[string]float64, error) {
	body, err := do(ctx, client, http.MethodGet, url+"/metrics", "", nil)
	if err != nil {
		return nil, err
	}
	return parseMetrics(body)
}

func parseMetrics(body []byte) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta returns after[k] - before[k] for every series of after.
func delta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// stage returns the summed seconds and the call count of one stage of a
// stage-seconds histogram family.
func stage(m map[string]float64, family, name string) (sum, count float64) {
	label := fmt.Sprintf(`{stage=%q}`, name)
	return m[family+"_sum"+label], m[family+"_count"+label]
}
