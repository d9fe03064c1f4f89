package main

import (
	"math/rand"
	"testing"
	"time"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // reversed: percentile must sort
		}
		return out
	}
	if _, ok := percentile(xs(999), 0.99); ok {
		t.Fatal("p99 of 999 samples accepted; only 9 lie beyond it")
	}
	v, ok := percentile(xs(1000), 0.99)
	if !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990 with 10 beyond", v, ok)
	}
	if v, ok := percentile(xs(20), 0.5); !ok || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10", v, ok)
	}
	if _, ok := percentile(xs(19), 0.5); ok {
		t.Fatal("p50 of 19 samples accepted; only 9 lie beyond it")
	}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		n := samplesFor(q)
		if _, ok := percentile(xs(n), q); !ok {
			t.Errorf("samplesFor(%v) = %d, but percentile refuses that many", q, n)
		}
		if _, ok := percentile(xs(n-1), q); ok {
			t.Errorf("samplesFor(%v) = %d is not the smallest accepted count", q, n)
		}
	}
}

func TestFailuresCountAsOverAnyLimit(t *testing.T) {
	ps := phaseStats{failed: 20}
	for i := 0; i < 980; i++ {
		ps.lat = append(ps.lat, 1)
	}
	if p99, ok := ps.tailLatency(0.99); !ok || p99 != inf {
		t.Fatalf("p99 with 2%% failed = %v, %v; want +Inf", p99, ok)
	}
}

func TestArrivalScheduleIsSeeded(t *testing.T) {
	a := phaseOps(rand.New(rand.NewSource(7)), 100, 500, 174)
	b := phaseOps(rand.New(rand.NewSource(7)), 100, 500, 174)
	c := phaseOps(rand.New(rand.NewSource(8)), 100, 500, 174)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs across runs with one seed: %+v vs %+v", i, a[i], b[i])
		}
		if a[i] != c[i] {
			same = false
		}
		if i > 0 && a[i].due < a[i-1].due {
			t.Fatalf("schedule not monotone at %d", i)
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 gave the same schedule")
	}
	// 500 arrivals at 100/s span about 5 s.
	if end := a[len(a)-1].due; end < 4*time.Second || end > 6*time.Second {
		t.Fatalf("500 arrivals at 100/s end at %v", end)
	}
	seen := map[int]bool{}
	for _, o := range a[:174] {
		seen[o.clip] = true
	}
	if len(seen) != 174 {
		t.Fatalf("first 174 ops cover %d clips; want every clip once", len(seen))
	}
}

func TestMetricNameCharset(t *testing.T) {
	for _, ok := range []string{"setup_s", "nn.conv1_ms", "batcher.queue_wait_p99_ms", "dense-mixed.quality", "0x"} {
		if !metricName.MatchString(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", "_lead", ".lead", "has space", "slash/name", "p99%", "ü", string(make([]byte, 65))} {
		if metricName.MatchString(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Metrics.set accepted a bad name")
		}
	}()
	newMetrics().set("bad name", 1, "ms", 1, "")
}

func TestMetricsDeltaParser(t *testing.T) {
	before, err := parseProm(`# HELP drainnet_requests_served_total Requests answered.
# TYPE drainnet_requests_served_total counter
drainnet_requests_served_total 10
drainnet_http_requests_total{route="/v1/detect",code="200"} 10
drainnet_http_requests_total{route="/v1/detect",code="429"} 1
drainnet_queue_wait_seconds_bucket{le="+Inf"} 10
drainnet_go_heap_alloc_bytes 1.5e+06
`)
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(`drainnet_requests_served_total 25
drainnet_http_requests_total{route="/v1/detect",code="200"} 24
drainnet_http_requests_total{route="/v1/detect",code="429"} 3
drainnet_http_requests_total{route="/v1/detect/batch",code="503"} 2
drainnet_http_requests_total{route="/v1/sweep",code="404"} 1
drainnet_queue_wait_seconds_bucket{le="+Inf"} 25
drainnet_go_heap_alloc_bytes 1e+06
`)
	if err != nil {
		t.Fatal(err)
	}
	d := delta(before, after)
	check := func(name string, got, want float64) {
		t.Helper()
		if got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	check("served", d["drainnet_requests_served_total"], 15)
	check("labelled bucket", d[`drainnet_queue_wait_seconds_bucket{le="+Inf"}`], 15)
	check("gauge delta", d["drainnet_go_heap_alloc_bytes"], -5e5)
	check("4xx", d.statusCount('4'), 3)
	check("5xx (new series counts from 0)", d.statusCount('5'), 2)
	check("detect 200s", d[`drainnet_http_requests_total{route="/v1/detect",code="200"}`], 14)
	if _, err := parseProm("drainnet_x{a=\"b\"}\n"); err == nil {
		t.Error("a sample line without a value parsed")
	}
}

func TestSelfTimeOfNestedSpans(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "decode", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "infer", Start: 40 * ms, End: 80 * ms},
		// Overlaps infer (concurrent child): only 80..90 is new cover.
		{ID: 4, Parent: 1, Name: "infer2", Start: 60 * ms, End: 90 * ms},
		{ID: 5, Parent: 3, Name: "conv", Start: 45 * ms, End: 65 * ms},
		// Spills past its parent's end: clipped.
		{ID: 6, Parent: 2, Name: "late", Start: 25 * ms, End: 50 * ms},
		{ID: 7, Parent: 1, Name: "open", Start: 95 * ms, End: -1},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 30 * ms, 2: 15 * ms, 3: 20 * ms, 4: 30 * ms, 5: 20 * ms, 6: 25 * ms}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self(%s) = %v, want %v", spans[id-1].Name, self[id], w)
		}
	}
	if _, ok := self[7]; ok {
		t.Error("an open span got a self time")
	}
	rec := newRecorder()
	outer := rec.begin("outer", 0, 1)
	inner := rec.begin("inner", outer, 1)
	time.Sleep(2 * ms)
	rec.end(inner)
	rec.end(outer)
	got := selfTimes(rec.snapshot())
	if got[outer] < 0 || got[outer] >= rec.snapshot()[outer-1].dur() || got[inner] != rec.snapshot()[inner-1].dur() {
		t.Errorf("recorder self times %v inconsistent", got)
	}
}

func TestLayerKeys(t *testing.T) {
	got := layerKeys([]string{"Conv2D", "ReLU", "MaxPool2D", "Conv2D", "ReLU", "MaxPool2D", "SPP", "Linear", "ReLU", "Linear"})
	want := []string{"conv1", "relu1", "pool1", "conv2", "relu2", "pool2", "spp", "fc1", "relu3", "head"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("layerKeys = %v, want %v", got, want)
		}
	}
}
