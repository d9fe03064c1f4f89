package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"slices"
	"time"

	"drainnet/internal/metrics"
	"drainnet/internal/serve"
	"drainnet/internal/serve/batcher"
	"drainnet/internal/sweep"
)

// Traffic shape. Rates are against ~300 req/s measured closed-loop
// capacity over two connections on a 2-CPU host.
const (
	lightRate      = 100.0     // req/s, the detect latency phase
	heavyRate      = 150.0     // req/s, rung 0 of the capacity ladder
	ladderStep     = 1.05      // adjacent ladder rungs are 5% apart
	ladderRungs    = 12        // rungs searched above (and below) rung 0: 83–269 req/s
	latencyLimitMs = 40.0      // p99 limit a ladder rung must meet
	trickleRate    = lightRate // req/s of interactive traffic beside sweep jobs
	warmupOps      = 100       // requests sent and discarded before timing
	setupRepeats   = 5         // server starts per run; setup_s is their median
	pollEvery      = 20 * time.Millisecond
)

// servedArgs is the served configuration of every workload.
var servedArgs = []string{"-precision", "auto", "-dynamic"}

// Sweep jobs. Every run of a sweep workload sweeps the same bank of
// rasters (raster seeds 1..bank) once, in an order drawn from the
// workload seed: raster content alone moved pooled recall between 0.054
// and 0.127 across workload seeds, more than any bound could hold.
type sweepWorkload struct {
	spec sweep.Spec
	bank int // rasters per run; each job covers spec.Scenarios on one
}

var (
	// survey: one 1024² raster under all seven scenarios, prior on.
	survey = sweepWorkload{spec: sweep.Spec{Rows: 1024, Cols: 1024, Scenarios: []string{"all"}}, bank: 1}
	// dense-mixed: three 1024² rasters, prior off, stride 10 (10,000
	// windows each).
	dense = sweepWorkload{spec: sweep.Spec{Rows: 1024, Cols: 1024, Stride: 10, Prior: sweep.PriorSpec{Disabled: true}}, bank: 3}
)

// job returns the spec of one job on raster seed; the spec's slices are
// copied, so WithDefaults on one job never rewrites the workload's.
func (w sweepWorkload) job(seed int64) sweep.Spec {
	s := w.spec
	s.Scenarios = slices.Clone(w.spec.Scenarios)
	s.Seed = seed
	return s
}

// workloads are the names --workload accepts (besides all).
var workloads = []string{"detect", "survey", "dense-mixed"}

// env is what every workload run shares.
type env struct {
	binDir, work, runDir string
	seed                 int64
	seconds              float64
	conns                int
	clips                *clipSet
	ckpt, ckptSHA        string
	refAP                float64
}

// wlResult is one workload run's outcome.
type wlResult struct {
	workload          string
	attempted, failed int
	checks            []string // failed output checks
	e2e               *Metrics // the BENCHMARK.json end-to-end set
	named             *Metrics // the per-workload names the report prints
	model             serve.ModelInfo
	stats             batcher.Stats // /v1/stats at the end of the workload
	after             promSample    // /v1/metrics at the end of the workload
	interactive       phaseStats
	wall              float64 // seconds of measured traffic
	steal             float64 // host steal share during the measured phase
	jobs              []jobRun
}

type jobRun struct {
	seed    int64 // raster seed
	seconds float64
	status  sweep.Status
}

func (r *wlResult) check(ok bool, format string, args ...any) {
	if !ok {
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
	}
}

// stealLimit is the share of demanded vCPU time the hypervisor may steal
// during a measured phase before the phase is run again: on a shared
// 2-vCPU host, detect phases with 18–27% steal read 15–25% slower than
// phases with 2–6%.
const stealLimit = 0.10

// runWorkload starts the served configuration setupRepeats times (setup_s
// is the median), drives one workload against the last start and stops
// the server. A phase whose host steal exceeds stealLimit runs again on
// the same inputs, up to attempts times in all; the least-disturbed
// attempt's metrics are kept, and every attempt's operations count as
// attempted. It also returns the /v1/metrics delta over all attempts.
// traceDir != "" trace-samples every request; ladder runs detect's
// capacity ladder.
func runWorkload(e *env, name, traceDir string, ladder bool, attempts int) (*wlResult, promSample, error) {
	args := append([]string{"-ckpt", e.ckpt}, servedArgs...)
	logName := "serve-%d.log"
	if traceDir != "" {
		args = append(args, "-trace-sample", "1", "-trace-dir", traceDir)
		logName = "serve-traced-%d.log"
	}
	var setups []float64
	var srv *server
	for i := 0; i < setupRepeats; i++ {
		s, secs, err := startServer(filepath.Join(e.binDir, "drainnet-serve"), args,
			filepath.Join(e.runDir, fmt.Sprintf(logName, i)))
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, secs)
		if i < setupRepeats-1 {
			s.stop()
			continue
		}
		srv = s
	}
	defer srv.stop()
	var model serve.ModelInfo
	if err := srv.getJSON("/v1/model", &model); err != nil {
		return nil, nil, err
	}
	before, err := scrape(srv)
	if err != nil {
		return nil, nil, err
	}

	var res *wlResult
	attempted, failed, tries := 0, 0, 0
	var checks []string
	for tries < attempts {
		tries++
		r := &wlResult{workload: name, e2e: newMetrics(), named: newMetrics(), model: model}
		busy0, steal0, _ := hostCPU()
		start := time.Now()
		switch name {
		case "detect":
			runDetect(e, srv, r, ladder)
		case "survey":
			runJobs(e, srv, r, survey)
		case "dense-mixed":
			runJobs(e, srv, r, dense)
		}
		r.wall = time.Since(start).Seconds()
		busy1, steal1, _ := hostCPU()
		r.steal = (steal1 - steal0) / max(busy1-busy0+steal1-steal0, 1)
		attempted += r.attempted
		failed += r.failed
		checks = append(checks, r.checks...)
		if res == nil || r.steal < res.steal {
			res = r
		}
		if r.steal <= stealLimit {
			break
		}
	}
	res.attempted, res.failed, res.checks = attempted, failed, checks
	res.check(model.Dynamic != nil, "/v1/model reports no dynamic plan")
	res.named.set("host_steal_frac", res.steal, "ratio", tries, "")

	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, nil, err
	}
	if res.after, err = scrape(srv); err != nil {
		return nil, nil, err
	}
	if err := srv.getJSON("/v1/stats", &res.stats); err != nil {
		return nil, nil, err
	}
	res.e2e.set("setup_s", median(setups), "s", len(setups), "")
	res.e2e.set("peak_rss_mb", rss, "MB", 1, "")
	res.e2e.set("ok_frac", 1-float64(res.failed)/float64(max(res.attempted, 1)), "ratio", res.attempted, "")
	res.named.set("setup_s", median(setups), "s", len(setups), "")
	res.named.set("peak_rss_mb", rss, "MB", 1, "")
	res.named.set("fail_frac", float64(res.failed)/float64(max(res.attempted, 1)), "ratio", res.attempted, "")
	return res, delta(before, res.after), nil
}

func scrape(s *server) (promSample, error) {
	text, err := s.getText("/v1/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(text)
}

// interactiveLatency records the p50 end-to-end metric of an interactive
// /v1/detect phase and its p50/p90/p99 under the workload's report names
// (<prefix>_p50_ms, ...), failures counting as over any limit.
func (r *wlResult) interactiveLatency(ps phaseStats, prefix string) {
	r.interactive = ps
	n := len(ps.lat) + ps.failed
	for _, q := range []float64{0.5, 0.9, 0.99} {
		v, ok := ps.tailLatency(q)
		r.check(ok, "%d interactive samples: too few for a p%.0f with %d beyond", n, q*100, minTail)
		r.check(!math.IsInf(v, 1), "interactive p%.0f is a failed request (%d of %d failed)", q*100, ps.failed, n)
		if q == 0.5 {
			r.e2e.set("detect_p50_ms", v, "ms", n, "")
		}
		r.named.set(fmt.Sprintf("%s_p%.0f_ms", prefix, q*100), finiteOr(v, 0), "ms", n, "")
	}
}

func (r *wlResult) count(outs []outcome) phaseStats {
	ps := summarize(outs)
	r.attempted += ps.attempted
	r.failed += ps.failed
	for _, o := range outs {
		if o.status == http.StatusOK && o.err != nil {
			r.check(false, "clip %d: %v", o.clip, o.err)
		}
	}
	return ps
}

// runDetect: open-loop Poisson /v1/detect at the light rate, then (with
// ladder) the capacity ladder starting at the heavy rate.
func runDetect(e *env, srv *server, res *wlResult, ladder bool) {
	rng := rand.New(rand.NewSource(e.seed))
	n := len(e.clips.bodies)
	g := newLoadgen(srv.base, e.conns, e.clips.bodies)
	defer g.close()

	res.count(g.run(nil, phaseOps(rng, lightRate, warmupOps, n)))
	nLight := max(samplesFor(0.99), int(lightRate*e.seconds*0.5))
	cpu0, _ := srv.cpuSeconds()
	light := g.run(nil, phaseOps(rng, lightRate, nLight, n))
	cpu1, _ := srv.cpuSeconds()
	ps := res.count(light)
	res.e2e.set("cpu_ms_per_item", (cpu1-cpu0)*1e3/float64(len(light)), "ms", len(light), "")
	res.interactiveLatency(ps, "detect")

	ap := servedAP(light, e.clips.gts)
	eps := 0.0
	if res.model.Dynamic != nil {
		eps = res.model.Dynamic.Epsilon
	}
	res.check(ap >= e.refAP-eps-1e-9, "detect_ap %.4f below fp32 reference %.4f minus gate epsilon %.4f", ap, e.refAP, eps)
	res.e2e.set("quality", ap, "ratio", n, "")
	res.named.set("detect_ap", ap, "AP", n, "")
	// Capacity: two closed-loop clients for 0.3 of the run.
	outs, secs := g.closedLoop(time.Duration(0.3*e.seconds*float64(time.Second)), rng.Perm(n))
	cl := res.count(outs)
	capacity := float64(len(cl.lat)) / secs
	res.e2e.set("work_per_s", capacity, "1/s", cl.attempted, "")
	res.named.set("detect_closed_loop_rps", capacity, "req/s", cl.attempted, "")
	if ladder {
		runLadder(e, g, rng, res)
	}
}

// runLadder finds detect_max_rps: rung k offers heavyRate·ladderStep^k
// req/s. A rung passes when nothing fails, its p99 meets the limit, and
// the generator has not fallen a whole limit behind by its last quarter
// (no growing backlog). Binary search assumes passing is monotone.
func runLadder(e *env, g *loadgen, rng *rand.Rand, res *wlResult) {
	n := len(e.clips.bodies)
	probe := func(k int) (bool, float64) {
		rate := heavyRate * math.Pow(ladderStep, float64(k))
		ps := res.count(g.run(nil, phaseOps(rng, rate, samplesFor(0.99), n)))
		p99, _ := ps.tailLatency(0.99)
		p50, _ := ps.tailLatency(0.5)
		q := len(ps.lag) / 4
		lagEnd := median(ps.lag[len(ps.lag)-q:])
		ok := ps.failed == 0 && p99 <= latencyLimitMs && lagEnd <= latencyLimitMs
		fmt.Printf("   ladder rung %+d: %.1f req/s p50=%.2f p99=%.2f ms end-lag=%.2f ms failed=%d pass=%t\n", k, rate, p50, p99, lagEnd, ps.failed, ok)
		return ok, p99
	}
	pass0, heavyP99 := probe(0)
	lo, hi := 0, ladderRungs+1
	if !pass0 {
		lo, hi = -ladderRungs-1, 0
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if ok, _ := probe(mid); ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	maxRPS := 0.0
	if lo >= -ladderRungs {
		maxRPS = heavyRate * math.Pow(ladderStep, float64(lo))
	}
	res.named.set("detect_heavy_p99_ms", finiteOr(heavyP99, 1e4), "ms", samplesFor(0.99), "")
	res.named.set("detect_max_rps", maxRPS, "req/s", samplesFor(0.99), "")
}

// servedAP scores the first successful response per clip.
func servedAP(outs []outcome, gts []metrics.GroundTruth) float64 {
	seen := map[int]bool{}
	var dets []metrics.Detection
	var truth []metrics.GroundTruth
	for _, o := range outs {
		if !o.ok() || seen[o.clip] {
			continue
		}
		seen[o.clip] = true
		dets = append(dets, metrics.Detection{Score: o.hit.Score, Box: *o.hit.Box})
		truth = append(truth, gts[o.clip])
	}
	if len(dets) < len(gts) {
		return 0
	}
	return metrics.Evaluate(dets, truth, iouThreshold).AP
}

// runJobs runs sweep jobs back to back beside an open-loop /v1/detect
// trickle, until the run's seconds are spent and the trickle holds
// enough samples for its p99.
func runJobs(e *env, srv *server, res *wlResult, w sweepWorkload) {
	rng := rand.New(rand.NewSource(e.seed))
	n := len(e.clips.bodies)
	g := newLoadgen(srv.base, e.conns, e.clips.bodies)
	defer g.close()
	res.count(g.run(nil, phaseOps(rng, lightRate, warmupOps, n)))

	// The trickle's schedule outlasts any job sequence; ops still unsent
	// when the last job ends are dropped.
	minSpan := float64(samplesFor(0.99)+100) / trickleRate
	horizon := int(trickleRate * (e.seconds + minSpan + 300))
	stop := make(chan struct{})
	trickled := make(chan []outcome, 1)
	go func() { trickled <- g.run(stop, phaseOps(rng, trickleRate, horizon, n)) }()

	order := rng.Perm(w.bank)
	cpu0, _ := srv.cpuSeconds()
	start := time.Now()
	for j := 0; ; j++ {
		s := w.job(int64(order[j%w.bank] + 1))
		jr, err := runJob(srv, s)
		res.attempted++
		if err != nil {
			res.failed++
			res.check(false, "sweep job %d: %v", j, err)
			break
		}
		res.jobs = append(res.jobs, jr)
		checkJob(res, jr.status, s)
		el := time.Since(start).Seconds()
		if j+1 >= w.bank && el >= e.seconds-jr.seconds/2 && el >= minSpan {
			break
		}
	}
	close(stop)
	ps := res.count(<-trickled)
	cpu1, _ := srv.cpuSeconds()

	// Throughput over every job; quality over the bank, each raster once.
	var windows, jobSecs, truth, matched, hits, hitMatched, inferred, exited float64
	for j, jr := range res.jobs {
		jobSecs += jr.seconds
		windows += float64(jr.status.Windows)
		inferred += float64(jr.status.Inferred)
		exited += float64(jr.status.Exited)
		if j >= w.bank {
			continue
		}
		for _, sc := range jr.status.PerScenario {
			truth += float64(sc.Truth)
			matched += math.Round(sc.Recall * float64(sc.Truth))
			hits += float64(sc.Hits)
			hitMatched += math.Round(sc.Precision * float64(sc.Hits))
		}
	}
	recall, precision := matched/math.Max(truth, 1), hitMatched/math.Max(hits, 1)
	nj := len(res.jobs)
	res.e2e.set("cpu_ms_per_item", (cpu1-cpu0)*1e3/math.Max(windows, 1), "ms", int(windows), "")
	res.e2e.set("work_per_s", windows/math.Max(jobSecs, 1e-9), "1/s", nj, "")
	res.e2e.set("quality", recall, "ratio", int(truth), "")
	if w.spec.Prior.Disabled {
		res.interactiveLatency(ps, "mixed_detect")
		res.named.set("dense_clips_per_s", inferred/math.Max(jobSecs, 1e-9), "clips/s", nj, "")
		res.named.set("dense_recall", recall, "ratio", int(truth), "")
	} else {
		res.interactiveLatency(ps, "survey_detect")
		res.named.set("survey_job_s", jobSecs/math.Max(float64(nj), 1), "s", nj, "")
		res.named.set("survey_recall", recall, "ratio", int(truth), "")
		res.named.set("survey_precision", precision, "ratio", int(hits), "")
	}
	res.named.set("sweep_exit_rate", exited/math.Max(inferred, 1), "ratio", int(inferred), "")
}

// runJob starts one sweep job and polls it to a final state.
func runJob(srv *server, spec sweep.Spec) (jobRun, error) {
	var st sweep.Status
	start := time.Now()
	code, loc, err := srv.postJSON("/v1/sweep", spec, &st)
	if err != nil {
		return jobRun{}, err
	}
	if code != http.StatusAccepted || loc == "" {
		return jobRun{}, fmt.Errorf("POST /v1/sweep: status %d, location %q", code, loc)
	}
	for st.State == sweep.StateRunning {
		time.Sleep(pollEvery)
		if err := srv.getJSON(loc, &st); err != nil {
			return jobRun{}, err
		}
	}
	jr := jobRun{seed: spec.Seed, seconds: time.Since(start).Seconds(), status: st}
	if st.State != sweep.StateDone {
		return jr, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	return jr, nil
}

// checkJob checks a finished job's accounting: every window is a
// candidate or skipped, every candidate was inferred, and every scenario
// has its summary.
func checkJob(res *wlResult, st sweep.Status, spec sweep.Spec) {
	want := len(spec.WithDefaults(res.model.ClipSize).Scenarios) // spec is a copy (sweepWorkload.job)
	res.check(st.Windows == st.Candidates+st.Skipped, "job %s: windows %d != candidates %d + skipped %d", st.ID, st.Windows, st.Candidates, st.Skipped)
	res.check(st.Inferred == st.Candidates, "job %s: inferred %d != candidates %d", st.ID, st.Inferred, st.Candidates)
	res.check(len(st.PerScenario) == want, "job %s: %d scenario summaries, want %d", st.ID, len(st.PerScenario), want)
}

func finiteOr(v, alt float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return alt
	}
	return v
}
