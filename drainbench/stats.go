package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile: a
// p99 needs at least 1000 samples, a p50 at least 20.
const minTail = 10

var inf = math.Inf(1)

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs. It
// refuses (ok=false) when fewer than minTail samples lie beyond the
// rank, so a reported tail always rests on at least ten observations.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, false
	}
	rank := nearestRank(q, n)
	if n-rank < minTail {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], true
}

// nearestRank is the 1-based rank of the q-quantile among n samples;
// the epsilon keeps 0.99·1000 from rounding up to rank 991.
func nearestRank(q float64, n int) int {
	return int(math.Ceil(q*float64(n) - 1e-9))
}

// samplesFor is the smallest sample count percentile accepts for q.
func samplesFor(q float64) int {
	n := 1
	for n-nearestRank(q, n) < minTail {
		n++
	}
	return n
}

// median is the middle value (mean of the two middle values for even n);
// 0 for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// metricName is the charset every reported metric name must match.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metricUnit is the charset of units.
var metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// Metric is one reported value with its unit and sample count.
type Metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"-"`
	// Moves names the end-to-end metric a per-layer metric should move
	// (printed in the traced report only).
	Moves string `json:"-"`
}

// Metrics is an ordered set of named metrics.
type Metrics struct {
	names []string
	vals  map[string]Metric
}

func newMetrics() *Metrics { return &Metrics{vals: map[string]Metric{}} }

// set records a metric, rejecting a malformed name or unit and a name
// already used: these are benchmark bugs.
func (m *Metrics) set(name string, v float64, unit string, samples int, moves string) {
	if !metricName.MatchString(name) {
		panic(fmt.Sprintf("drainbench: bad metric name %q", name))
	}
	if !metricUnit.MatchString(unit) {
		panic(fmt.Sprintf("drainbench: bad unit %q for %s", unit, name))
	}
	if _, dup := m.vals[name]; dup {
		panic(fmt.Sprintf("drainbench: metric %s set twice", name))
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m.names = append(m.names, name)
	m.vals[name] = Metric{Value: v, Unit: unit, Samples: samples, Moves: moves}
}
