package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"drainnet/internal/metrics"
	"drainnet/internal/model"
	"drainnet/internal/nn"
	"drainnet/internal/provenance"
	"drainnet/internal/sweep"
	"drainnet/internal/tensor"
	"drainnet/internal/terrain"
	"drainnet/internal/train"
)

// dynamicBenchBatch is the serving batch size the dynamic bench groups
// sweep traffic into — the same max-batch regime the pool coalesces to.
const dynamicBenchBatch = 16

// DynamicBenchRow is one (scenario, path) measurement over that
// scenario's sweep traffic (every candidate window of a fixed synthetic
// raster, majority empty tiles).
type DynamicBenchRow struct {
	Scenario  string `json:"scenario"`
	Path      string `json:"path"` // tuned (static autotuned mix), dynamic (exit+mask), dynamic-routed (+ int8 easy path)
	Clips     int    `json:"clips"`
	Positives int    `json:"positives"`
	// NsPerImg is total wall time over the whole traffic pass divided by
	// clip count — the §6.4 per-image cost on this traffic mix.
	NsPerImg float64 `json:"ns_per_image"`
	AllocsOp int64   `json:"allocs_per_op"`
	// ExitRate/MaskRate are measured over the timed pass, not the
	// calibration split; Int8Share is the routed-easy fraction
	// (dynamic-routed rows only).
	ExitRate  float64 `json:"exit_rate,omitempty"`
	MaskRate  float64 `json:"mask_rate,omitempty"`
	Int8Share float64 `json:"int8_share,omitempty"`
	// Speedup is the tuned row's ns/image over this row's, at the same
	// scenario; 1.0 for the tuned rows themselves.
	Speedup float64 `json:"speedup_vs_tuned,omitempty"`
}

// DynamicPlanInfo records the accuracy-gate verdict behind a benchmarked
// dynamic run, mirroring the /v1/model dynamic block.
type DynamicPlanInfo struct {
	ExitEnabled   bool    `json:"exit_enabled"`
	MaskEnabled   bool    `json:"mask_enabled"`
	RouterEnabled bool    `json:"router_enabled"`
	Demotions     int     `json:"demotions"`
	FP32AP        float64 `json:"fp32_ap"`
	DynamicAP     float64 `json:"dynamic_ap"`
	Drop          float64 `json:"ap_drop"`
	Epsilon       float64 `json:"epsilon"`
}

// DynamicBenchRun is the benchmark at one GOMAXPROCS setting.
type DynamicBenchRun struct {
	GOMAXPROCS  int               `json:"gomaxprocs"`
	PoolWorkers int               `json:"pool_workers"`
	Plan        DynamicPlanInfo   `json:"plan"`
	Rows        []DynamicBenchRow `json:"rows"`
	// SpeedupMajorityEmpty is the best dynamic-path speedup on the
	// baseline scenario's majority-empty traffic — the headline number
	// the 1.3× target is checked against.
	SpeedupMajorityEmpty float64 `json:"speedup_majority_empty"`
}

// DynamicBenchResult is written to BENCH_dynamic.json: the static
// autotuned kernel mix against the accuracy-gated dynamic inference
// path (early-exit negatives, spatial masking, optional int8 routing)
// over realistic sweep traffic, one run per GOMAXPROCS setting.
type DynamicBenchResult struct {
	Model      string            `json:"model"`
	Provenance *provenance.Stamp `json:"provenance,omitempty"`
	Runs       []DynamicBenchRun `json:"runs"`
}

// dynamicBenchScenarios are the traffic mixes measured: the baseline
// watershed plus two imaging shifts the detector must stay robust under.
var dynamicBenchScenarios = []string{"baseline", "leaf_off", "noisy_sensor"}

// DynamicBench trains a seconds-scale detector, autotunes its kernels
// (the PR-8 static baseline), calibrates the dynamic inference plan on
// baseline sweep traffic, and measures ns/image for each path over each
// scenario's full candidate-window traffic. Merges the current
// GOMAXPROCS run into outPath (defaults to BENCH_dynamic.json).
func DynamicBench(outPath string) (*DynamicBenchResult, error) {
	if outPath == "" {
		outPath = "BENCH_dynamic.json"
	}
	dc := TinyData()
	// Sweep windows hold crossings anywhere, not near-centered like the
	// default clip jitter produces — train with full-window jitter so the
	// calibration-set AP the gate protects is a real detection score.
	dc.JitterFrac = 0.45
	dc.ClipsPerCrossing = 4
	cfg := model.OriginalSPPNet().Scaled(dc.WidthScale).WithInput(terrain.NumBands, dc.ClipSize)
	net, err := cfg.Build(rand.New(rand.NewSource(dc.NetSeed)))
	if err != nil {
		return nil, err
	}
	trainDS, testDS, err := BuildData(dc)
	if err != nil {
		return nil, err
	}
	opt := train.PaperOptions()
	opt.Epochs = dc.Epochs
	opt.BatchSize = dc.BatchSize
	opt.BoxWeight = 5
	opt.LRStepEpoch = dc.Epochs * 2 / 3
	opt.LRStepGamma = 0.1
	if _, err := train.Fit(net, trainDS, opt); err != nil {
		return nil, err
	}
	nn.PrepareInferenceParallel(net)

	// Static baseline: the accuracy-gated int8 decision plus the
	// autotuned per-layer kernel mix, exactly the stack PR 8 serves.
	dec, err := model.QuantizeGated(net, testDS, model.QuantOptions{MaxAPDrop: 0.05})
	if err != nil {
		return nil, err
	}
	qnet := dec.Net
	if !dec.Enabled {
		qnet = nil
	}
	kplan, err := model.AutotuneKernels(net, qnet, []int{terrain.NumBands, dc.ClipSize, dc.ClipSize}, testDS,
		model.KernelOptions{Batches: []int{1, dynamicBenchBatch}, MaxAPDrop: 0.05})
	if err != nil {
		return nil, err
	}
	tuned := kplan.Served

	// Dynamic plan: calibrated on baseline sweep traffic so the exit
	// probe learns the empty-tile profile it will serve, gated at the
	// same epsilon as the static stack. The masked path runs on an fp32
	// clone so the tuned baseline keeps its own kernels.
	calib, err := sweep.BenchTraffic("baseline", dc.ClipSize)
	if err != nil {
		return nil, err
	}
	dynNetM, err := nn.CloneShared(net)
	if err != nil {
		return nil, err
	}
	dynNet := dynNetM.(*nn.Sequential)
	plan, err := model.PlanDynamic(dynNet, calib, model.DynamicOptions{MaxAPDrop: 0.05, Int8: dec})
	if err != nil {
		return nil, err
	}
	plan.Apply(dynNet)
	exec := model.NewDynamicExec(dynNet, plan)
	var execI8 *model.DynamicExec
	if plan.RouterEnabled && qnet != nil {
		execI8 = model.NewDynamicExec(qnet, plan)
	}

	run := DynamicBenchRun{
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		PoolWorkers: tensor.PoolWorkers(),
		Plan: DynamicPlanInfo{
			ExitEnabled:   plan.ExitEnabled,
			MaskEnabled:   plan.MaskEnabled,
			RouterEnabled: plan.RouterEnabled,
			Demotions:     plan.Demotions,
			FP32AP:        plan.FP32AP,
			DynamicAP:     plan.DynamicAP,
			Drop:          plan.Drop,
			Epsilon:       plan.Epsilon,
		},
	}

	for _, scenario := range dynamicBenchScenarios {
		traffic, err := sweep.BenchTraffic(scenario, dc.ClipSize)
		if err != nil {
			return nil, err
		}
		batches, positives := trafficBatches(traffic)
		clips := len(traffic.Samples)

		tunedRow := timeTrafficPass(scenario, "tuned", clips, positives, func(a *tensor.Arena, dets []metrics.Detection) []metrics.Detection {
			for _, x := range batches {
				a.Reset()
				dets = model.InferDetect(tuned, x, a, dets)
			}
			return dets
		})
		tunedRow.Speedup = 1
		run.Rows = append(run.Rows, tunedRow)

		plan.ExitStats.Reset()
		plan.Stats.Reset()
		dynRow := timeTrafficPass(scenario, "dynamic", clips, positives, func(a *tensor.Arena, dets []metrics.Detection) []metrics.Detection {
			for _, x := range batches {
				a.Reset()
				dets = exec.InferDetect(x, a, dets, nil)
			}
			return dets
		})
		dynRow.ExitRate = plan.ExitStats.Rate()
		dynRow.MaskRate = plan.Stats.Rate()
		dynRow.Speedup = tunedRow.NsPerImg / dynRow.NsPerImg
		run.Rows = append(run.Rows, dynRow)

		if execI8 != nil {
			// Per-path batching as the pool does it: the difficulty
			// router splits the traffic up front (routing is part of
			// Submit, not the batch), each path runs its own batches.
			i8Batches, fp32Batches, i8n := routedBatches(traffic, plan.Router)
			plan.ExitStats.Reset()
			plan.Stats.Reset()
			routedRow := timeTrafficPass(scenario, "dynamic-routed", clips, positives, func(a *tensor.Arena, dets []metrics.Detection) []metrics.Detection {
				for _, x := range fp32Batches {
					a.Reset()
					dets = exec.InferDetect(x, a, dets, nil)
				}
				for _, x := range i8Batches {
					a.Reset()
					dets = execI8.InferDetect(x, a, dets, nil)
				}
				return dets
			})
			routedRow.ExitRate = plan.ExitStats.Rate()
			routedRow.MaskRate = plan.Stats.Rate()
			routedRow.Int8Share = float64(i8n) / float64(clips)
			routedRow.Speedup = tunedRow.NsPerImg / routedRow.NsPerImg
			run.Rows = append(run.Rows, routedRow)
		}
	}

	for _, row := range run.Rows {
		if row.Scenario == "baseline" && row.Speedup > run.SpeedupMajorityEmpty && row.Path != "tuned" {
			run.SpeedupMajorityEmpty = row.Speedup
		}
	}

	res := &DynamicBenchResult{}
	loadBenchFile(outPath, res)
	res.Model = fmt.Sprintf("%s /%d @%dpx", cfg.Name, dc.WidthScale, dc.ClipSize)
	res.Provenance = provenance.Collect()
	res.Runs = mergeDynamicRunByProcs(res.Runs, run)
	if err := writeBenchFile(outPath, res); err != nil {
		return nil, err
	}
	return res, nil
}

// trafficBatches groups a traffic dataset into pool-sized batch tensors
// (built once, outside the timed loop) and counts its positives.
func trafficBatches(ds *terrain.Dataset) (batches []*tensor.Tensor, positives int) {
	for _, s := range ds.Samples {
		if s.Target.HasObject {
			positives++
		}
	}
	for lo := 0; lo < len(ds.Samples); lo += dynamicBenchBatch {
		hi := lo + dynamicBenchBatch
		if hi > len(ds.Samples) {
			hi = len(ds.Samples)
		}
		x, _ := ds.Batch(lo, hi)
		batches = append(batches, x)
	}
	return batches, positives
}

// routedBatches splits traffic by the difficulty router the way the
// pool's Submit does, then batches each path separately.
func routedBatches(ds *terrain.Dataset, r *model.Router) (i8, fp32 []*tensor.Tensor, i8n int) {
	easy := &terrain.Dataset{ClipSize: ds.ClipSize}
	hard := &terrain.Dataset{ClipSize: ds.ClipSize}
	for i, s := range ds.Samples {
		x, _ := ds.Batch(i, i+1)
		if r.Route(x, 0) == model.PrecisionInt8 {
			easy.Samples = append(easy.Samples, s)
		} else {
			hard.Samples = append(hard.Samples, s)
		}
	}
	i8n = len(easy.Samples)
	if i8n > 0 {
		i8, _ = trafficBatches(easy)
	}
	if len(hard.Samples) > 0 {
		fp32, _ = trafficBatches(hard)
	}
	return i8, fp32, i8n
}

// timeTrafficPass benchmarks one full pass over a scenario's traffic and
// converts ns/op to ns/image.
func timeTrafficPass(scenario, path string, clips, positives int, pass func(*tensor.Arena, []metrics.Detection) []metrics.Detection) DynamicBenchRow {
	a := tensor.NewArena()
	var dets []metrics.Detection
	dets = pass(a, dets) // warm the arena and detection buffer
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dets = pass(a, dets)
		}
	})
	return DynamicBenchRow{
		Scenario:  scenario,
		Path:      path,
		Clips:     clips,
		Positives: positives,
		NsPerImg:  float64(r.NsPerOp()) / float64(clips),
		AllocsOp:  r.AllocsPerOp(),
	}
}

func mergeDynamicRunByProcs(runs []DynamicBenchRun, run DynamicBenchRun) []DynamicBenchRun {
	out := runs[:0]
	for _, r := range runs {
		if r.GOMAXPROCS != run.GOMAXPROCS {
			out = append(out, r)
		}
	}
	out = append(out, run)
	sort.Slice(out, func(i, j int) bool { return out[i].GOMAXPROCS < out[j].GOMAXPROCS })
	return out
}

// Render formats the result as the aligned table the bench CLI prints.
func (r *DynamicBenchResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Dynamic inference over sweep traffic — %s\n", r.Model)
	for _, run := range r.Runs {
		fmt.Fprintf(&b, "GOMAXPROCS=%d, pool workers=%d — exit=%t mask=%t router=%t demotions=%d ap_drop=%.4f (ε=%.4f)\n",
			run.GOMAXPROCS, run.PoolWorkers, run.Plan.ExitEnabled, run.Plan.MaskEnabled,
			run.Plan.RouterEnabled, run.Plan.Demotions, run.Plan.Drop, run.Plan.Epsilon)
		fmt.Fprintf(&b, "%-14s %-15s %6s %5s %12s %10s %10s %10s %9s\n",
			"scenario", "path", "clips", "pos", "ns/image", "exit", "mask", "int8", "speedup")
		for _, row := range run.Rows {
			fmt.Fprintf(&b, "%-14s %-15s %6d %5d %12.0f %9.1f%% %9.1f%% %9.1f%% %8.2fx\n",
				row.Scenario, row.Path, row.Clips, row.Positives, row.NsPerImg,
				row.ExitRate*100, row.MaskRate*100, row.Int8Share*100, row.Speedup)
		}
		fmt.Fprintf(&b, "majority-empty speedup: %.2fx (target ≥ 1.30x)\n", run.SpeedupMajorityEmpty)
	}
	return b.String()
}
