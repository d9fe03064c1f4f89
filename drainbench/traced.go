package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"drainnet/internal/experiments"
	"drainnet/internal/metrics"
	"drainnet/internal/model"
	"drainnet/internal/nn"
	"drainnet/internal/serve"
	"drainnet/internal/serve/batcher"
	"drainnet/internal/sweep"
	"drainnet/internal/telemetry"
	"drainnet/internal/tensor"
	"drainnet/internal/terrain"
)

// tracedRun gives the per-layer numbers of one workload in three passes:
//
//  1. the workload with tracing off (detect without its ladder), the
//     base for the tracing overhead and the source of the dynamic-path
//     rates, which the server's trace-timed forward pass bypasses;
//  2. in-process probes: the benchmark's own spans around calls into
//     each layer's public functions (setup, decode, forward, the HTTP
//     handler, a sweep job through a timed sweep.Submitter);
//  3. the workload against a server started with -trace-sample 1, whose
//     per-request Chrome traces and /v1/metrics deltas give the batcher,
//     per-layer and residual numbers.
//
// The benchmark's spans stay in memory and are written to the run
// directory at the end.
func tracedRun(e *env, name string) (*wlResult, *Metrics, error) {
	base, baseDelta, err := runWorkload(e, name, "", false, 1)
	if err != nil {
		return nil, nil, err
	}

	m := newMetrics()
	rec := newRecorder()
	// In-process probes run the server's code, so they get the CPUs the
	// server would.
	genProcs := runtime.GOMAXPROCS(maxProcs())
	pr, err := inprocProbes(e, name, rec, m)
	runtime.GOMAXPROCS(genProcs)
	if err != nil {
		return nil, nil, err
	}

	traceDir := filepath.Join(e.runDir, "traces")
	res, d, err := runWorkload(e, name, traceDir, false, 1)
	if err != nil {
		return nil, nil, err
	}
	traces, err := readTraces(traceDir)
	if err != nil {
		return nil, nil, err
	}
	res.checks = append(res.checks, base.checks...)
	res.attempted += base.attempted
	res.failed += base.failed
	res.check(len(traces) > 0, "no request traces written to %s", traceDir)
	serverMetrics(m, res, base, d, baseDelta, traces, pr)
	if err := rec.write(filepath.Join(e.runDir, "spans.json")); err != nil {
		return nil, nil, err
	}
	_ = os.RemoveAll(traceDir) // parsed; thousands of files per run
	return res, m, nil
}

// probeOut carries in-process medians the server-side metrics combine
// with.
type probeOut struct {
	decodeMs, transportMs float64
	convFlops, convBytes  []float64 // computed per clip, conv1..convN
}

// inprocProbes times calls into each layer's public functions and sets
// the setup, serve, model, tensor-shape and sweep metrics.
func inprocProbes(e *env, name string, rec *recorder, m *Metrics) (*probeOut, error) {
	pr := &probeOut{}
	cs := e.clips

	// Setup: the same calls drainnet-serve makes for -precision auto
	// -dynamic, each in its own span under one setup span.
	setupID := rec.begin("setup", 0, 0)
	var net *nn.Sequential
	var err error
	load := rec.timed("train.LoadFile", setupID, func() { net, err = cs.loadNet(e.ckpt) })
	if err != nil {
		return nil, err
	}
	var calib *terrain.Dataset
	calibSpan := rec.timed("experiments.BuildData", setupID, func() { _, calib, err = experiments.BuildData(cs.dc) })
	if err != nil {
		return nil, err
	}
	var qdec *model.QuantDecision
	quant := rec.timed("model.QuantizeGated", setupID, func() {
		qdec, err = model.QuantizeGated(net, calib, model.QuantOptions{MaxAPDrop: 0.01})
	})
	if err != nil {
		return nil, err
	}
	var dplan *model.DynamicPlan
	plan := rec.timed("model.PlanDynamic", setupID, func() {
		dplan, err = model.PlanDynamic(net, calib, model.DynamicOptions{MaxAPDrop: 0.01, Int8: qdec})
	})
	if err != nil {
		return nil, err
	}
	dyn := &serve.Dynamic{Spec: dplan}
	if dplan.RouterEnabled && qdec.Enabled {
		dyn.Int8Net = qdec.Net
	}
	pack := rec.timed("nn.PrepareInferenceParallel", setupID, func() { nn.PrepareInferenceParallel(net) })
	var srv *serve.Server
	newSrv := rec.timed("serve.NewWithOptions", setupID, func() {
		// drainnet-serve's flag defaults.
		srv, err = serve.NewWithOptions(cs.cfg, net, 0.7, serve.Options{
			MaxBatch: 8, MaxWait: 2 * time.Millisecond, QueueSize: 64, RequestTimeout: 30 * time.Second,
			Precision: model.PrecisionFP32, Dynamic: dyn, Telemetry: telemetry.New(telemetry.Options{}),
		})
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	rec.end(setupID)
	self := selfTimes(rec.snapshot())[setupID]
	m.set("setup.load_ms", ms(load), "ms", 1, "setup_s")
	m.set("setup.calib_data_ms", ms(calibSpan), "ms", 1, "setup_s")
	m.set("setup.quant_gate_ms", ms(quant), "ms", 1, "setup_s")
	m.set("setup.plan_dynamic_ms", ms(plan), "ms", 1, "setup_s")
	m.set("setup.pack_ms", ms(pack), "ms", 1, "setup_s")
	m.set("setup.new_server_ms", ms(newSrv), "ms", 1, "setup_s")
	m.set("setup.self_ms", ms(self), "ms", 1, "setup_s")

	// serve: JSON decode of every workload body.
	var dec []float64
	probe := rec.begin("probe.decode", 0, 0)
	for i, b := range cs.bodies {
		id := rec.begin("json.Decode", probe, i+1)
		var req serve.DetectRequest
		err := json.NewDecoder(bytes.NewReader(b)).Decode(&req)
		dec = append(dec, ms(rec.end(id)))
		if err != nil {
			return nil, err
		}
	}
	rec.end(probe)
	pr.decodeMs = median(dec)
	m.set("serve.decode_ms", pr.decodeMs, "ms", len(dec), "detect_p50_ms (detect), work_per_s (detect)")

	// model: the static fp32 fast path at batch 1 and batch 8.
	if err := inferProbe(e, rec, m, pr); err != nil {
		return nil, err
	}
	// serve: the handler behind a benchmark-owned wrapper.
	if err := handlerProbe(e, srv, rec, m, pr); err != nil {
		return nil, err
	}
	// sweep/terrain: one job through a timed Submitter around the pool.
	spec := survey.job(1)
	switch name {
	case "detect":
		spec.Scenarios = []string{"baseline", "leaf_off"}
	case "dense-mixed":
		spec = dense.job(1)
	}
	if err := sweepProbe(srv.Pool(), spec, cs.cfg.InSize, rec, m); err != nil {
		return nil, err
	}
	return pr, nil
}

func inferProbe(e *env, rec *recorder, m *Metrics, pr *probeOut) error {
	cs := e.clips
	net, err := cs.loadNet(e.ckpt)
	if err != nil {
		return err
	}
	nn.PrepareInferenceParallel(net)
	pr.convFlops, pr.convBytes = convWork(net, cs.images[0])
	a := tensor.NewArena()
	var dst []metrics.Detection
	run := func(x *tensor.Tensor) {
		a.Reset()
		dst = model.InferDetect(net, x, a, dst[:0])
	}
	for _, x := range cs.images[:20] {
		run(x) // warm the arena and packed weights
	}
	probe := rec.begin("probe.infer", 0, 0)
	var b1, b8 []float64
	for i, x := range cs.images {
		id := rec.begin("model.InferDetect.b1", probe, i+1)
		run(x)
		b1 = append(b1, ms(rec.end(id)))
	}
	c, h, w := cs.images[0].Dim(1), cs.images[0].Dim(2), cs.images[0].Dim(3)
	batch := tensor.New(8, c, h, w)
	stride := c * h * w
	for rep := 0; rep < 60; rep++ {
		for j := 0; j < 8; j++ {
			copy(batch.Data()[j*stride:], cs.images[(rep*8+j)%len(cs.images)].Data())
		}
		id := rec.begin("model.InferDetect.b8", probe, 0)
		run(batch)
		b8 = append(b8, ms(rec.end(id)))
	}
	rec.end(probe)
	m.set("model.infer_ms_b1", median(b1), "ms", len(b1), "detect_p50_ms (detect)")
	m.set("model.infer_ms_b8", median(b8), "ms", len(b8), "work_per_s (dense-mixed)")
	return nil
}

// convWork computes each conv layer's operation count and bytes moved
// per clip from tensor shapes (computed, not measured): 2·weights·Hout·Wout
// FLOPs; input, weights and output read or written once, as float32.
func convWork(net *nn.Sequential, clip *tensor.Tensor) (flops, bytes []float64) {
	x := clip
	for _, mod := range net.Modules() {
		y := mod.Forward(x)
		if c, ok := mod.(*nn.Conv2D); ok {
			w := float64(c.Weight.Value.Len())
			hw := float64(y.Dim(2) * y.Dim(3))
			flops = append(flops, 2*w*hw)
			bytes = append(bytes, 4*(float64(x.Len())+w+float64(y.Len())))
		}
		x = y
	}
	return flops, bytes
}

// handlerProbe serves the in-process server's Handler behind a wrapper
// that records a span per request, and sends sequential requests from a
// client span: the client span's self time is the transport.
func handlerProbe(e *env, srv *serve.Server, rec *recorder, m *Metrics, pr *probeOut) error {
	h := srv.Handler()
	wrapped := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.Atoi(r.Header.Get("Drainbench-Span"))
		req, _ := strconv.Atoi(r.Header.Get("Drainbench-Req"))
		id := rec.begin("serve.Handler", parent, req)
		h.ServeHTTP(w, r)
		rec.end(id)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: wrapped}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		_ = hs.Close()
		<-served
	}()
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	url := "http://" + ln.Addr().String() + "/v1/detect"
	probe := rec.begin("probe.handler", 0, 0)
	var clientIDs []int
	const warm, n = 30, 330
	for i := 0; i < n; i++ {
		clip := i % len(e.clips.bodies)
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(e.clips.bodies[clip]))
		if err != nil {
			return err
		}
		id := rec.begin("client.detect", probe, i+1)
		req.Header.Set("Drainbench-Span", strconv.Itoa(id))
		req.Header.Set("Drainbench-Req", strconv.Itoa(i+1))
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		rec.end(id)
		if err != nil || resp.StatusCode != http.StatusOK {
			return fmt.Errorf("handler probe: status %d: %v", resp.StatusCode, err)
		}
		var hit serve.Hit
		if err := checkHit(body, &hit); err != nil {
			return err
		}
		if i >= warm {
			clientIDs = append(clientIDs, id)
		}
	}
	rec.end(probe)
	spans := rec.snapshot()
	self := selfTimes(spans)
	var handler, transport []float64
	isClient := map[int]bool{}
	for _, id := range clientIDs {
		isClient[id] = true
		transport = append(transport, ms(self[id]))
	}
	for _, s := range spans {
		if s.Name == "serve.Handler" && isClient[s.Parent] {
			handler = append(handler, ms(s.dur()))
		}
	}
	pr.transportMs = median(transport)
	m.set("serve.handler_ms", median(handler), "ms", len(handler), "detect_p50_ms (detect)")
	m.set("serve.transport_ms", pr.transportMs, "ms", len(transport), "detect_p50_ms (detect)")
	return nil
}

// timedSubmitter wraps the pool a sweep job submits through, timing
// every Submit and counting queue-full refusals (the job retries them).
type timedSubmitter struct {
	inner   sweep.Submitter
	rec     *recorder
	parent  int
	mu      sync.Mutex
	durs    []float64
	retries atomic.Int64
}

func (t *timedSubmitter) Submit(ctx context.Context, x *tensor.Tensor) (metrics.Detection, error) {
	id := t.rec.begin("batcher.Submit", t.parent, 0)
	det, err := t.inner.Submit(ctx, x)
	d := t.rec.end(id)
	switch {
	case errors.Is(err, batcher.ErrQueueFull):
		t.retries.Add(1)
	case err == nil:
		t.mu.Lock()
		t.durs = append(t.durs, ms(d))
		t.mu.Unlock()
	}
	return det, err
}

// sweepPhases maps a job's timed status phases to their metrics. The
// extract and merge phases often finish inside one polling interval (a
// dense job's extract is a loop over window origins; merge runs under
// the job lock), so they are not timed apart: they fall in
// residual.job_s, the job's time outside the timed phases.
var sweepPhases = map[string]string{
	"generate": "terrain.generate_s",
	"render":   "terrain.render_s",
	"infer":    "sweep.infer_s",
}

// sweepProbe runs one job in-process, polling its status every
// millisecond to lay out phase spans under the job span.
func sweepProbe(pool *batcher.Pool, spec sweep.Spec, window int, rec *recorder, m *Metrics) error {
	jobID := rec.begin("sweep.Job", 0, 0)
	ts := &timedSubmitter{inner: pool, rec: rec, parent: jobID}
	mgr, err := sweep.NewManager(sweep.ManagerOptions{
		Submit: ts, Bands: terrain.NumBands, DefaultWindow: window, Precision: string(pool.Options().Precision),
	})
	if err != nil {
		return err
	}
	defer mgr.Close()
	job, err := mgr.Start(spec)
	if err != nil {
		return err
	}
	phaseID, phase := 0, ""
	phaseSecs := map[string]float64{}
	ticker := time.NewTicker(time.Millisecond)
	defer ticker.Stop()
	for done := false; !done; {
		select {
		case <-job.Done():
			done = true
		case <-ticker.C:
		}
		p := job.Status().Phase
		if done {
			p = ""
		}
		if p != phase {
			if phaseID != 0 {
				phaseSecs[phase] += rec.end(phaseID).Seconds()
			}
			phaseID, phase = 0, p
			if sweepPhases[p] != "" {
				phaseID = rec.begin("phase."+p, jobID, 0)
			}
		}
	}
	rec.end(jobID)
	st := job.Status()
	if st.State != sweep.StateDone {
		return fmt.Errorf("sweep probe job ended %s: %s", st.State, st.Error)
	}
	for _, p := range []string{"generate", "render", "infer"} {
		moves := "work_per_s (survey)"
		if p == "infer" {
			moves = "work_per_s (dense-mixed)"
		}
		m.set(sweepPhases[p], phaseSecs[p], "s", len(st.PerScenario), moves)
	}
	m.set("sweep.skip_rate", st.SkipRate, "ratio", st.Windows, "work_per_s (survey)")
	p50, _ := percentile(ts.durs, 0.5)
	p99, ok := percentile(ts.durs, 0.99)
	if !ok {
		p99 = maxOf(ts.durs) // fewer than 1000 submits: the largest seen
	}
	m.set("sweep.submit_p50_ms", p50, "ms", len(ts.durs), "work_per_s (dense-mixed)")
	m.set("sweep.submit_p99_ms", p99, "ms", len(ts.durs), "detect_p99_ms (dense-mixed)")
	m.set("sweep.queue_full_retries", float64(ts.retries.Load()), "count", len(ts.durs), "work_per_s (dense-mixed)")
	m.set("residual.job_s", jobResidual(rec, jobID), "s", 1, "work_per_s (survey)")
	return nil
}

// jobResidual is the job span's time outside its timed phase spans,
// ignoring the Submit spans that nest under it too.
func jobResidual(rec *recorder, jobID int) float64 {
	var phases []span
	var job span
	for _, s := range rec.snapshot() {
		switch {
		case s.ID == jobID:
			job = s
		case s.Parent == jobID && strings.HasPrefix(s.Name, "phase."):
			phases = append(phases, s)
		}
	}
	return (job.dur() - covered(job, phases)).Seconds()
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// reqTrace is one request's server-side Chrome trace.
type reqTrace struct {
	http                           bool
	batch                          int
	queue, assembly, infer, serial float64 // ms
	layers                         []layerSlice
}

type layerSlice struct {
	name string
	ms   float64
}

var batchRE = regexp.MustCompile(`batch=(\d+)\)`)

// readTraces parses every req-<id>.trace.json the server wrote.
func readTraces(dir string) ([]reqTrace, error) {
	files, err := filepath.Glob(filepath.Join(dir, "req-*.trace.json"))
	if err != nil {
		return nil, err
	}
	out := make([]reqTrace, 0, len(files))
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var evs []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Dur  float64 `json:"dur"` // µs
		}
		if err := json.Unmarshal(b, &evs); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		var t reqTrace
		for _, ev := range evs {
			d := ev.Dur / 1e3
			switch {
			case ev.Cat == "kernel/layer":
				t.layers = append(t.layers, layerSlice{ev.Name, d})
			case ev.Name == "queue_wait":
				t.queue = d
			case ev.Name == "batch_assembly":
				t.assembly = d
			case ev.Name == "serialization":
				t.serial, t.http = d, true
			case strings.HasPrefix(ev.Name, "inference "):
				t.infer = d
				if mm := batchRE.FindStringSubmatch(ev.Name); mm != nil {
					t.batch, _ = strconv.Atoi(mm[1])
				}
			}
		}
		if t.batch > 0 {
			out = append(out, t)
		}
	}
	return out, nil
}

// layerKeys names the forward pass's layers by kind and position:
// conv1, relu1, pool1, ..., spp, fc1, ..., head for the last linear.
func layerKeys(names []string) []string {
	keys := make([]string, len(names))
	count := map[string]int{}
	lastLinear := -1
	for i, n := range names {
		if n == "Linear" {
			lastLinear = i
		}
	}
	for i, n := range names {
		kind := strings.ToLower(n)
		switch n {
		case "Conv2D":
			kind = "conv"
		case "MaxPool2D":
			kind = "pool"
		case "Linear":
			kind = "fc"
		}
		if i == lastLinear {
			keys[i] = "head"
			continue
		}
		count[kind]++
		if n == "SPP" {
			keys[i] = "spp"
			continue
		}
		keys[i] = kind + strconv.Itoa(count[kind])
	}
	return keys
}

// serverMetrics sets the batcher, nn, tensor, runtime, residual and
// overhead metrics from the traced pass (res, d, traces) and the
// untraced pass (base, baseDelta).
func serverMetrics(m *Metrics, res, base *wlResult, d, baseDelta promSample, traces []reqTrace, pr *probeOut) {
	var queue, assembly, inferHTTP, serial, busy []float64
	perLayer := map[int][]float64{}
	var layerNames []string
	classSum := map[string]float64{}
	total := 0.0
	for _, t := range traces {
		queue = append(queue, t.queue)
		assembly = append(assembly, t.assembly)
		busy = append(busy, t.infer/float64(t.batch))
		if t.http {
			inferHTTP = append(inferHTTP, t.infer)
			serial = append(serial, t.serial)
		}
		if len(t.layers) > len(layerNames) {
			layerNames = layerNames[:0]
			for _, l := range t.layers {
				layerNames = append(layerNames, l.name)
			}
		}
		for i, l := range t.layers {
			per := l.ms / float64(t.batch)
			perLayer[i] = append(perLayer[i], per)
			classSum[layerClass(l.name)] += per
			total += per
		}
	}
	qp50, _ := percentile(queue, 0.5)
	qp99, ok := percentile(queue, 0.99)
	if !ok {
		qp99 = maxOf(queue)
	}
	m.set("batcher.queue_wait_p50_ms", qp50, "ms", len(queue), "detect_p50_ms (detect)")
	m.set("batcher.queue_wait_p99_ms", qp99, "ms", len(queue), "detect_p99_ms (dense-mixed)")
	m.set("batcher.batch_assembly_ms", median(assembly), "ms", len(assembly), "detect_p50_ms (detect)")
	m.set("batcher.inference_ms", median(inferHTTP), "ms", len(inferHTTP), "detect_p50_ms (detect)")
	m.set("batcher.serialization_ms", median(serial), "ms", len(serial), "detect_p50_ms (detect)")
	served, batches := d["drainnet_requests_served_total"], d["drainnet_batches_total"]
	m.set("batcher.mean_batch", served/max(batches, 1), "clips", int(batches), "work_per_s (dense-mixed)")
	replicas := float64(max(res.model.Replicas, 1))
	m.set("batcher.busy_frac", sum(busy)/1e3/(replicas*res.wall), "ratio", len(busy), "work_per_s (detect, dense-mixed)")
	m.set("batcher.rejected", d["drainnet_requests_rejected_total"], "count", int(served), "ok_frac")
	m.set("batcher.canceled", d["drainnet_requests_canceled_total"], "count", int(served), "ok_frac")
	m.set("serve.status_4xx", d.statusCount('4'), "count", res.attempted, "ok_frac")
	m.set("serve.status_5xx", d.statusCount('5'), "count", res.attempted, "ok_frac")

	// Dynamic-path shares come from the untraced pass: trace-sampled
	// batches run the per-layer-timed static forward instead.
	st := base.stats
	m.set("model.exit_rate", st.ExitRate, "ratio", int(st.Served), "work_per_s (dense-mixed), quality (dense-mixed)")
	m.set("model.mask_rate", st.MaskRate, "ratio", int(st.Served), "work_per_s (dense-mixed)")
	m.set("model.int8_routed_frac", float64(st.RoutedInt8)/float64(max(st.RoutedInt8+st.RoutedFP32, 1)), "ratio", int(st.RoutedInt8+st.RoutedFP32), "work_per_s (dense-mixed), quality")

	keys := layerKeys(layerNames)
	for i, k := range keys {
		m.set("nn."+k+"_ms", median(perLayer[i]), "ms", len(perLayer[i]), "work_per_s (dense-mixed), detect_p50_ms (detect)")
	}
	for _, c := range []string{"conv", "fc", "pool"} {
		m.set("nn."+c+"_share", classSum[c]/max(total, 1e-12), "ratio", len(traces), "work_per_s (dense-mixed)")
	}
	conv := 0
	for i, n := range layerNames {
		if n != "Conv2D" || conv >= len(pr.convFlops) {
			continue
		}
		secs := median(perLayer[i]) / 1e3
		m.set(fmt.Sprintf("tensor.conv%d_gflops", conv+1), pr.convFlops[conv]/secs/1e9, "GFLOP/s", len(perLayer[i]), "work_per_s (dense-mixed)")
		m.set(fmt.Sprintf("tensor.conv%d_gbps", conv+1), pr.convBytes[conv]/secs/1e9, "GB/s", len(perLayer[i]), "work_per_s (dense-mixed)")
		conv++
	}

	m.set("runtime.gc_pause_ms", baseDelta["drainnet_go_gc_pause_total_seconds"]*1e3, "ms", 1, "detect_p99_ms, peak_rss_mb")
	m.set("runtime.heap_alloc_mb", base.after["drainnet_go_heap_alloc_bytes"]/(1<<20), "MB", 1, "peak_rss_mb")
	m.set("telemetry.events_dropped", d["drainnet_telemetry_events_dropped_total"], "count", 1, "(must stay 0)")
	lag, ok := percentile(base.interactive.lag, 0.99)
	if !ok {
		lag = maxOf(base.interactive.lag)
	}
	m.set("loadgen.lag_p99_ms", lag, "ms", len(base.interactive.lag), "detect_p99_ms (if it rises, latency measures the generator)")

	// Per-request residual: traced client p50 minus the median parts.
	tp50, _ := res.interactive.tailLatency(0.5)
	parts := pr.decodeMs + qp50 + median(assembly) + median(inferHTTP) + median(serial) + pr.transportMs
	m.set("residual.request_ms", tp50-parts, "ms", len(res.interactive.lat), "detect_p50_ms")
	bp50, _ := base.interactive.tailLatency(0.5)
	bp99, _ := base.interactive.tailLatency(0.99)
	tp99, _ := res.interactive.tailLatency(0.99)
	m.set("trace.overhead_p50_ms", tp50-bp50, "ms", len(res.interactive.lat), "detect_p50_ms")
	m.set("trace.overhead_p99_ms", finiteOr(tp99-bp99, 0), "ms", len(res.interactive.lat), "detect_p99_ms")
}

// layerClass groups layers into the paper's §7 kernel classes.
func layerClass(name string) string {
	switch name {
	case "Conv2D":
		return "conv"
	case "Linear":
		return "fc"
	case "MaxPool2D", "SPP":
		return "pool"
	}
	return "other"
}
