// drainnet-serve trains (or loads) a drainage-crossing detector and
// serves it over the versioned /v1 HTTP API:
//
//	POST   /v1/detect             {"bands":4,"size":100,"pixels":[...]} → hit JSON
//	POST   /v1/detect/batch       {"items":[{...},{...}]} → positional results
//	POST   /v1/sweep              start an async watershed sweep job
//	GET    /v1/sweep              list sweep jobs
//	GET    /v1/sweep/{id}         sweep progress, phase, clips/sec
//	GET    /v1/sweep/{id}/results cursor-paginated crossing hits
//	DELETE /v1/sweep/{id}         cancel a sweep job
//	GET    /v1/model              served architecture and parameter count
//	GET    /v1/stats              queue depth, batch histogram, latency quantiles
//	GET    /v1/metrics            Prometheus text exposition (?format=json)
//	GET    /v1/trace              most recent sampled request as Chrome trace
//	GET    /v1/healthz            readiness (503 while draining)
//	POST   /v1/control/batching   retune effective max-batch/max-wait live
//	GET    /healthz               liveness
//	GET    /debug/pprof/*         Go profiling endpoints (only with -pprof)
//
// (The legacy unversioned /detect and /model aliases answer 410 Gone.)
//
// Sweep jobs checkpoint to -sweep-dir after every chunk and survive a
// graceful drain: restart the server with the same -sweep-dir and the
// unfinished jobs resume bit-identically.
//
// Inference runs on a pool of independent model replicas. Dispatch is
// work-conserving: an idle replica takes pending requests at once, and
// batches (up to -max-batch clips) form only from the backlog while every
// replica is busy. -max-wait (default 0) opts into holding an idle
// replica up to that long for a partial batch to fill — the §6.4
// latency/throughput trade-off, worth it only when a clip costs less
// inside a batch. Sweep clips and requests tagged X-Drainnet-Class: bulk
// ride a bulk lane that never shares a batch with interactive requests
// and leaves one replica free for them.
// Telemetry is on by default: serving counters and phase histograms are
// always scrapeable at /v1/metrics, and -trace-sample N additionally
// exports every N-th request's span as a Chrome trace.
//
// Usage:
//
//	drainnet-serve -addr :8080                 # train quickly, then serve
//	drainnet-serve -ckpt model.ckpt            # load a saved checkpoint
//	drainnet-serve -replicas 4 -max-batch 32 -queue 256
//	drainnet-serve -trace-sample 100 -trace-dir traces/ -pprof
//	drainnet-serve -ios -ios-cache costs.json   # IOS-scheduled replicas
//	drainnet-serve -precision int8 -quant-max-ap-drop 0.01   # accuracy-gated int8
//	drainnet-serve -autotune -kernel-cache kern.json         # tuned conv kernels
//	drainnet-serve -dynamic -precision auto                  # dynamic inference
//	drainnet-serve -nas-plan nas-out/plan.json               # serve a searched winner
//
// -precision int8 quantizes the detector (per-channel int8 weights,
// affine int8 activations) and refuses to start unless the held-out AP
// drop stays within -quant-max-ap-drop; -precision auto falls back to
// fp32 instead of refusing. /v1/model reports the precision actually
// served.
//
// -autotune measures every conv kernel variant (im2col+GEMM, Winograd
// F(2,3), cache-blocked NCHWc, direct — plus int8 when the quant gate
// passed) per layer and batch bucket on this machine and serves the
// fastest mix whose held-out AP drop stays within -quant-max-ap-drop.
// /v1/model reports the per-layer choices and the drainnet_kernel_choice
// gauge exports them.
//
// -dynamic serves the accuracy-gated dynamic inference path: a
// calibrated early-exit head answers confident-negative clips before the
// SPP+FC tail, spatially-masked conv kernels skip low-energy output-row
// bands, and (when the int8 gate passed via -precision int8/auto) a
// difficulty router sends easy clips to an int8 replica path. A gate
// ladder demotes masking first, then the exit, until the held-out AP
// drop fits within -quant-max-ap-drop. The main path serves fp32;
// /v1/model reports the plan and /v1/stats the live exit/mask/route
// rates. Does not compose with -ios.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"drainnet/internal/experiments"
	"drainnet/internal/ios"
	"drainnet/internal/model"
	"drainnet/internal/nas"
	"drainnet/internal/nn"
	"drainnet/internal/serve"
	"drainnet/internal/telemetry"
	"drainnet/internal/terrain"
	"drainnet/internal/train"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	ckpt := flag.String("ckpt", "", "checkpoint to load (skips training)")
	threshold := flag.Float64("threshold", 0.7, "objectness confidence threshold")
	replicas := flag.Int("replicas", 0, "model replicas serving concurrently (0 = GOMAXPROCS)")
	maxBatch := flag.Int("max-batch", 8, "max clips coalesced into one forward pass")
	maxWait := flag.Duration("max-wait", 0, "opt-in hold: max time an idle replica waits for a partial batch to fill (0 = work-conserving, dispatch at once)")
	queue := flag.Int("queue", 64, "bounded request queue size (full queue → 429)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request timeout (queue + inference)")
	telemetryOn := flag.Bool("telemetry", true, "run the span pipeline feeding /v1/metrics phase histograms")
	traceSample := flag.Int("trace-sample", 0, "export every N-th request as a Chrome trace (0 = off)")
	traceDir := flag.String("trace-dir", "", "also write sampled traces to this directory (req-<id>.trace.json)")
	pprofOn := flag.Bool("pprof", false, "expose /debug/pprof endpoints")
	iosOn := flag.Bool("ios", false, "serve with IOS-scheduled inference: benchmark this machine's operators and run the measured-cost-optimal stage schedule on every replica")
	iosCache := flag.String("ios-cache", "", "operator cost-cache file for -ios (loaded if present, saved after measuring; startups with a warm cache skip re-measurement)")
	precisionFlag := flag.String("precision", "fp32", "serving precision: fp32, int8 (refuse to start if the accuracy gate fails) or auto (fall back to fp32)")
	quantMaxDrop := flag.Float64("quant-max-ap-drop", 0.01, "accuracy gate epsilon: largest tolerated AP drop (fp32 AP − int8 AP) on the held-out split before int8 is refused")
	autotune := flag.Bool("autotune", false, "measure every conv kernel variant (im2col, winograd, nchwc, direct, int8 when gated on) per layer and batch bucket on this machine and serve the fastest accuracy-gated mix; shares -quant-max-ap-drop as the gate epsilon")
	kernelCache := flag.String("kernel-cache", "", "kernel measurement cache file for -autotune (loaded if present, saved after tuning); may be the same file as -ios-cache — the keys are shared")
	dynamicOn := flag.Bool("dynamic", false, "serve the accuracy-gated dynamic inference path (early-exit negatives, spatial masking, and — with a passed int8 gate — per-request precision routing); shares -quant-max-ap-drop as the gate epsilon")
	nasPlan := flag.String("nas-plan", "", "serve a drainnet-nas winner: plan.json written by drainnet-nas -out; sets the architecture, loads the sibling checkpoint, and applies the plan's precision and kernel mode (explicit -ckpt/-precision/-autotune flags still win)")
	sweepDir := flag.String("sweep-dir", "", "checkpoint directory for /v1/sweep jobs (empty = jobs die with the process); unfinished jobs in it resume at startup")
	sweepConc := flag.Int("sweep-concurrency", 0, "max in-flight pool submissions per sweep job (0 = default 16)")
	workerID := flag.Int("worker-id", -1, "cluster worker slot id; labels every metric with worker=<id> (-1 = standalone)")
	flag.Parse()

	precision, err := model.ParsePrecision(*precisionFlag)
	if err != nil {
		log.Fatal(err)
	}

	dc := experiments.TinyData()
	cfg := model.SPPNet2().Scaled(dc.WidthScale).WithInput(4, dc.ClipSize)

	// A NAS winner plan replaces the default architecture with the
	// searched one and carries its own checkpoint, precision and kernel
	// mode; flags the operator set explicitly still win.
	if *nasPlan != "" {
		plan, err := nas.LoadWinnerPlan(*nasPlan)
		if err != nil {
			log.Fatal(err)
		}
		explicit := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		cfg = plan.Arch
		if !explicit["ckpt"] {
			*ckpt = plan.ResolveCheckpoint(*nasPlan)
		}
		if !explicit["precision"] {
			precision = plan.Candidate.Precision
		}
		if !explicit["autotune"] {
			*autotune = plan.Candidate.Kernels == nas.KernelModeTuned
		}
		fmt.Printf("level=info msg=nas_plan arch=%q precision=%s kernels=%s accuracy=%.4f threshold=%.2f measured_b1_ms=%.4f measured_b%d_ms=%.4f\n",
			cfg.Name, precision, plan.Candidate.Kernels, plan.Accuracy, plan.Threshold,
			plan.LatencyB1Ns/1e6, plan.MaxBatch, plan.LatencyBNNs/1e6)
	}
	net, err := cfg.Build(rand.New(rand.NewSource(dc.NetSeed)))
	if err != nil {
		log.Fatal(err)
	}
	// calibDS is the held-out split the quantization accuracy gate scores
	// both precisions on; the training path reuses its test split.
	var calibDS *terrain.Dataset
	if *ckpt != "" {
		if err := train.LoadFile(*ckpt, net); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("loaded checkpoint %s\n", *ckpt)
	} else {
		fmt.Println("training a detector (use -ckpt to skip)...")
		trainDS, testDS, err := experiments.BuildData(dc)
		if err != nil {
			log.Fatal(err)
		}
		calibDS = testDS
		opt := train.PaperOptions()
		opt.Epochs = dc.Epochs
		opt.BatchSize = dc.BatchSize
		opt.BoxWeight = 5
		opt.LRStepEpoch = dc.Epochs * 2 / 3
		opt.LRStepGamma = 0.1
		if _, err := train.Fit(net, trainDS, opt); err != nil {
			log.Fatal(err)
		}
		ev := train.Evaluate(net, testDS, dc.IoUThreshold)
		fmt.Printf("trained: AP@%.1f = %.1f%%\n", dc.IoUThreshold, ev.AP*100)
	}

	// Quantize before kernel autotuning and schedule optimization, so
	// both price the operators that will actually serve (int8 ops carry
	// their own cost-cache keys).
	served := model.PrecisionFP32
	fp32Net := net
	var qnet *nn.Sequential
	var qdec *model.QuantDecision
	if precision != model.PrecisionFP32 {
		if calibDS == nil {
			if _, calibDS, err = experiments.BuildData(dc); err != nil {
				log.Fatal(err)
			}
		}
		dec, err := model.QuantizeGated(net, calibDS, model.QuantOptions{MaxAPDrop: *quantMaxDrop})
		if err != nil {
			log.Fatal(err)
		}
		qdec = dec
		fmt.Printf("level=info msg=quant_gate requested=%s quantized_layers=%d fallback_layers=%d fp32_ap=%.4f int8_ap=%.4f ap_drop=%.4f epsilon=%.4f enabled=%t\n",
			precision, dec.Report.Quantized, dec.Report.Fallback,
			dec.FP32AP, dec.Int8AP, dec.Drop, dec.Epsilon, dec.Enabled)
		switch {
		case dec.Enabled:
			qnet = dec.Net
			net = dec.Net
			served = model.PrecisionInt8
		case precision == model.PrecisionInt8:
			log.Fatalf("int8 requested but the accuracy gate failed (AP drop %.4f > epsilon %.4f); raise -quant-max-ap-drop or use -precision auto to fall back",
				dec.Drop, dec.Epsilon)
		default:
			fmt.Println(`level=info msg=quant_fallback reason="accuracy gate failed" serving=fp32`)
		}
	}

	// Per-layer kernel autotuning: measure im2col vs winograd vs nchwc vs
	// direct (vs int8 when the quant gate passed) for every conv layer
	// and serve the fastest mix that keeps the held-out AP drop within
	// epsilon. Runs before IOS planning so the schedule oracle prices the
	// kernels that will actually serve.
	var kplan *model.KernelPlan
	if *autotune {
		if calibDS == nil {
			if _, calibDS, err = experiments.BuildData(dc); err != nil {
				log.Fatal(err)
			}
		}
		kcache := ios.NewCostCache()
		if *kernelCache != "" {
			if kcache, err = ios.LoadCostCache(*kernelCache); err != nil {
				log.Fatal(err)
			}
		}
		before := kcache.Len()
		kplan, err = model.AutotuneKernels(fp32Net, qnet, []int{cfg.InBands, cfg.InSize, cfg.InSize}, calibDS,
			model.KernelOptions{Batches: []int{1, *maxBatch}, MaxAPDrop: *quantMaxDrop, Cache: kcache})
		if err != nil {
			log.Fatal(err)
		}
		if *kernelCache != "" && kplan.Cache.Len() != before {
			if err := kplan.Cache.Save(*kernelCache); err != nil {
				log.Printf("level=warn msg=\"kernel cache not saved\" err=%v", err)
			}
		}
		net = kplan.Served
		// The served net is pure fp32 exactly when the plan handed the
		// fp32 net back; any other assembly carries int8 modules.
		served = model.PrecisionFP32
		if kplan.Served != fp32Net {
			served = model.PrecisionInt8
		}
		fmt.Printf("level=info msg=kernel_autotune mix=%q demotions=%d fp32_ap=%.4f tuned_ap=%.4f ap_drop=%.4f epsilon=%.4f measured=%d cache_entries=%d cache=%q\n",
			kplan.Mix(), kplan.Demotions, kplan.FP32AP, kplan.TunedAP, kplan.Drop, kplan.Epsilon, kplan.Cache.Len()-before, kplan.Cache.Len(), *kernelCache)
	}

	// Dynamic inference: calibrate the early-exit head, mask thresholds,
	// and (when int8 is gated on) the difficulty router, walking the gate
	// ladder until the held-out AP drop fits epsilon. The main path
	// serves fp32 — with an int8 quant swap above, the int8 net moves to
	// the routed replica path instead of replacing the main one.
	var dyn *serve.Dynamic
	if *dynamicOn {
		if *iosOn {
			log.Fatal("-dynamic does not compose with -ios schedules")
		}
		if calibDS == nil {
			if _, calibDS, err = experiments.BuildData(dc); err != nil {
				log.Fatal(err)
			}
		}
		net = fp32Net
		served = model.PrecisionFP32
		dopts := model.DynamicOptions{MaxAPDrop: *quantMaxDrop, Int8: qdec}
		dplan, err := model.PlanDynamic(net, calibDS, dopts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("level=info msg=dynamic_plan exit=%t mask=%t router=%t demotions=%d fp32_ap=%.4f dynamic_ap=%.4f ap_drop=%.4f epsilon=%.4f calib_exit_rate=%.3f calib_mask_rate=%.3f\n",
			dplan.ExitEnabled, dplan.MaskEnabled, dplan.RouterEnabled, dplan.Demotions,
			dplan.FP32AP, dplan.DynamicAP, dplan.Drop, dplan.Epsilon, dplan.ExitRate, dplan.MaskRate)
		dyn = &serve.Dynamic{Spec: dplan}
		if dplan.RouterEnabled && qnet != nil {
			dyn.Int8Net = qnet
		}
	}

	// One-time weight packing (im2col panels, winograd transforms, NCHWc
	// blocks, int8 quantization), parallelized across layers, of the one
	// network every batcher replica runs.
	packStart := time.Now()
	nn.PrepareInferenceParallel(net)
	packMS := float64(time.Since(packStart)) / float64(time.Millisecond)

	var tel *telemetry.Telemetry
	if *telemetryOn {
		topts := telemetry.Options{SampleEvery: *traceSample}
		if *traceDir != "" {
			topts.TraceSink = telemetry.FileSink(*traceDir)
		}
		if *workerID >= 0 {
			topts.ConstLabels = map[string]string{"worker": strconv.Itoa(*workerID)}
		}
		tel = telemetry.New(topts)
	} else {
		tel = telemetry.NewDisabled()
	}

	var plan *model.SchedulePlan
	if *iosOn {
		cache := ios.NewCostCache()
		if *iosCache != "" {
			if cache, err = ios.LoadCostCache(*iosCache); err != nil {
				log.Fatal(err)
			}
		}
		before := cache.Len()
		plan, err = model.OptimizeSchedules(cfg, net, *maxBatch, cache)
		if err != nil {
			log.Fatal(err)
		}
		if *iosCache != "" && plan.Cache.Len() != before {
			if err := plan.Cache.Save(*iosCache); err != nil {
				log.Printf("level=warn msg=\"cost cache not saved\" err=%v", err)
			}
		}
		// The chosen schedules, one line each and greppable against the
		// bench harness output (same Compact rendering).
		fmt.Printf("level=info msg=ios_plan batch1_stages=%d batchN_stages=%d measured_ops=%d cache=%q\n",
			len(plan.Batch1.Stages), len(plan.BatchN.Stages), plan.Cache.Len(), *iosCache)
		fmt.Printf("level=info msg=schedule batch=1 plan=%q\n", plan.Batch1.Compact())
		fmt.Printf("level=info msg=schedule batch=%d plan=%q\n", *maxBatch, plan.BatchN.Compact())
	}

	srv, err := serve.NewWithOptions(cfg, net, *threshold, serve.Options{
		Replicas:         *replicas,
		MaxBatch:         *maxBatch,
		MaxWait:          *maxWait,
		QueueSize:        *queue,
		RequestTimeout:   *timeout,
		Telemetry:        tel,
		EnablePprof:      *pprofOn,
		Plan:             plan,
		Precision:        served,
		Kernels:          kplan,
		SweepDir:         *sweepDir,
		SweepResume:      *sweepDir != "",
		SweepConcurrency: *sweepConc,
		Dynamic:          dyn,
	})
	if err != nil {
		log.Fatal(err)
	}
	popts := srv.Pool().Options()
	// One structured line with the full resolved configuration, so a log
	// scraper (or a human) sees every serving knob in one place.
	fmt.Printf("level=info msg=serving model=%q addr=%s gomaxprocs=%d precision=%s autotune=%t dynamic=%t pack_ms=%.1f replicas=%d max_batch=%d max_wait=%v queue=%d timeout=%v telemetry=%t trace_sample=%d trace_dir=%q pprof=%t ios=%t sweep_dir=%q sweep_concurrency=%d worker_id=%d\n",
		cfg.Name, *addr, runtime.GOMAXPROCS(0), served, *autotune, *dynamicOn, packMS, popts.Replicas, popts.MaxBatch, popts.MaxWait, popts.QueueSize,
		*timeout, *telemetryOn, *traceSample, *traceDir, *pprofOn, *iosOn, *sweepDir, *sweepConc, *workerID)

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatal(err)
	case s := <-sig:
		fmt.Printf("level=info msg=draining signal=%v\n", s)
	}

	// Flip readiness first so a router stops sending new work, stop
	// accepting connections, finish in-flight HTTP exchanges, then drain
	// the inference pool (queued requests are still served).
	srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	srv.Close()
	st := srv.Pool().Stats()
	fmt.Printf("level=info msg=drained served=%d batches=%d mean_batch=%.2f rejected=%d canceled=%d\n",
		st.Served, st.Batches, st.MeanBatch, st.Rejected, st.Canceled)
}
