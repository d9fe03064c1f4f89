package main

import (
	"fmt"
	"strconv"
	"strings"
)

// promSample maps a series key (metric name plus its label set exactly
// as exposed, e.g. `drainnet_http_requests_total{route="/v1/detect",code="200"}`)
// to its value.
type promSample map[string]float64

// parseProm parses Prometheus text exposition. Comment and blank lines
// are skipped; a malformed sample line is an error.
func parseProm(text string) (promSample, error) {
	out := promSample{}
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space outside the label braces.
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 || (strings.IndexByte(line, '}') > cut) {
			return nil, fmt.Errorf("metrics line %d: no value: %q", i+1, line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %v", i+1, err)
		}
		out[strings.TrimSpace(line[:cut])] = v
	}
	return out, nil
}

// delta is after − before per series; series absent before count from 0.
func delta(before, after promSample) promSample {
	d := promSample{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// statusCount sums drainnet_http_requests_total over codes whose first
// digit is class (4 or 5).
func (p promSample) statusCount(class byte) float64 {
	t := 0.0
	for k, v := range p {
		base, lbl, _ := strings.Cut(k, "{")
		if base != "drainnet_http_requests_total" {
			continue
		}
		if i := strings.Index(lbl, `code="`); i >= 0 && i+6 < len(lbl) && lbl[i+6] == class {
			t += v
		}
	}
	return t
}
