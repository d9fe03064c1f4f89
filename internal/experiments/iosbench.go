package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"drainnet/internal/ios"
	"drainnet/internal/metrics"
	"drainnet/internal/model"
	"drainnet/internal/nn"
	"drainnet/internal/tensor"
)

// IOSBenchRow is one (path, batch) measurement on the real CPU
// inference path: "sequential" is the PR 3 zero-alloc fast path,
// "scheduled" runs the measured-oracle IOS schedule through the
// concurrent stage executor.
type IOSBenchRow struct {
	Path       string  `json:"path"`
	Precision  string  `json:"precision"` // "fp32" or "int8" — keys the row alongside path+batch
	Batch      int     `json:"batch"`
	NsPerOp    int64   `json:"ns_per_op"`
	NsPerImg   float64 `json:"ns_per_image"`
	AllocsOp   int64   `json:"allocs_per_op"`
	BytesOp    int64   `json:"bytes_per_op"`
	Iterations int     `json:"iterations"`
	Stages     int     `json:"stages,omitempty"`   // scheduled rows only
	Schedule   string  `json:"schedule,omitempty"` // compact stage/group structure
}

// IOSBenchRun is the comparison at one GOMAXPROCS setting. The pool
// sizes itself once per process, so `make bench-ios` invokes the
// binary once per setting and the runs merge here.
type IOSBenchRun struct {
	GOMAXPROCS    int           `json:"gomaxprocs"`
	PoolWorkers   int           `json:"pool_workers"`
	MeasuredOps   int           `json:"measured_ops"` // operator timings taken by the cost oracle
	Deterministic bool          `json:"deterministic"`
	Rows          []IOSBenchRow `json:"rows"`
	GainBatch1    float64       `json:"gain_batch1"`
	GainBatch16   float64       `json:"gain_batch16"`
	// Int8Gain* are the scheduled-vs-sequential gains on the int8 path;
	// the int8 operators are priced separately by the cost oracle
	// (precision-tagged cache keys) so the DP schedules them from their
	// own measurements.
	Int8GainBatch1  float64 `json:"int8_gain_batch1"`
	Int8GainBatch16 float64 `json:"int8_gain_batch16"`
}

// IOSBenchResult is written to BENCH_ios.json: profile-guided
// inter-operator scheduling on the real inference path vs the
// sequential fast path, with a bitwise-determinism proof per run.
type IOSBenchResult struct {
	Model string        `json:"model"`
	Runs  []IOSBenchRun `json:"runs"`
}

// IOSBench measures each operator of the width-scaled Original SPP-Net
// with the MeasuredOracle, optimizes stage schedules for batch 1 and
// 16, and benchmarks the scheduled executor against the sequential
// fast path. The scheduled output is checked bit-for-bit against
// Sequential.Infer before timing. Results merge into outPath keyed by
// GOMAXPROCS (defaults to BENCH_ios.json when empty).
func IOSBench(outPath string) (*IOSBenchResult, error) {
	if outPath == "" {
		outPath = "BENCH_ios.json"
	}
	cfg := model.OriginalSPPNet().Scaled(4).WithInput(4, 50)
	net, err := cfg.Build(rand.New(rand.NewSource(7)))
	if err != nil {
		return nil, err
	}
	plan, err := model.OptimizeSchedules(cfg, net, 16, nil)
	if err != nil {
		return nil, err
	}
	exec1, execN, err := plan.CompileExecutors(net)
	if err != nil {
		return nil, err
	}

	// Quantize the same network and re-optimize over the shared cost
	// cache: the int8 convs/linears carry precision-tagged cache keys, so
	// the oracle measures them separately while reusing the fp32 pool/SPP
	// timings.
	rng := rand.New(rand.NewSource(9))
	var calibBatches []*tensor.Tensor
	for i := 0; i < 4; i++ {
		cb := tensor.New(8, cfg.InBands, cfg.InSize, cfg.InSize)
		cb.RandNormal(rng, 0, 1)
		calibBatches = append(calibBatches, cb)
	}
	qnet, _, err := nn.QuantizeForInference(net, nn.Calibrate(net, calibBatches))
	if err != nil {
		return nil, err
	}
	qplan, err := model.OptimizeSchedules(cfg, qnet, 16, plan.Cache)
	if err != nil {
		return nil, err
	}
	qexec1, qexecN, err := qplan.CompileExecutors(qnet)
	if err != nil {
		return nil, err
	}

	run := IOSBenchRun{
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		PoolWorkers:   tensor.PoolWorkers(),
		MeasuredOps:   qplan.Cache.Len(),
		Deterministic: true,
	}

	byKey := map[string]IOSBenchRow{}
	benchPrecision := func(precision string, pnet *nn.Sequential, p *model.SchedulePlan, e1, eN *nn.ScheduleExecutor) {
		for _, batch := range []int{1, 16} {
			x := tensor.New(batch, cfg.InBands, cfg.InSize, cfg.InSize)
			rng := rand.New(rand.NewSource(int64(batch)))
			for i := range x.Data() {
				x.Data()[i] = rng.Float32()
			}
			exec := e1
			sched := p.Batch1
			if batch > 1 {
				exec, sched = eN, p.BatchN
			}

			// Determinism proof: the scheduled run must reproduce the
			// sequential fast path bit for bit.
			seqOut := pnet.Infer(x, tensor.NewArena())
			schedOut := exec.Infer(x, tensor.NewArena())
			for i, v := range seqOut.Data() {
				if math.Float32bits(v) != math.Float32bits(schedOut.Data()[i]) {
					run.Deterministic = false
					break
				}
			}

			arena := tensor.NewArena()
			var dets []metrics.Detection
			seq := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					arena.Reset()
					dets = model.InferDetect(pnet, x, arena, dets)
				}
			})
			seqRow := iosRow("sequential", precision, batch, seq, nil)
			run.Rows = append(run.Rows, seqRow)
			byKey[fmt.Sprintf("seq-%s-%d", precision, batch)] = seqRow

			schedBench := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					arena.Reset()
					dets = model.InferDetectScheduled(exec, x, arena, dets, nil)
				}
			})
			schedRow := iosRow("scheduled", precision, batch, schedBench, sched)
			run.Rows = append(run.Rows, schedRow)
			byKey[fmt.Sprintf("ios-%s-%d", precision, batch)] = schedRow
		}
	}
	benchPrecision("fp32", net, plan, exec1, execN)
	benchPrecision("int8", qnet, qplan, qexec1, qexecN)
	run.GainBatch1 = float64(byKey["seq-fp32-1"].NsPerOp) / float64(byKey["ios-fp32-1"].NsPerOp)
	run.GainBatch16 = float64(byKey["seq-fp32-16"].NsPerOp) / float64(byKey["ios-fp32-16"].NsPerOp)
	run.Int8GainBatch1 = float64(byKey["seq-int8-1"].NsPerOp) / float64(byKey["ios-int8-1"].NsPerOp)
	run.Int8GainBatch16 = float64(byKey["seq-int8-16"].NsPerOp) / float64(byKey["ios-int8-16"].NsPerOp)

	res := &IOSBenchResult{}
	loadBenchFile(outPath, res)
	res.Model = cfg.Name + " /4 @50px"
	res.Runs = mergeIOSRun(res.Runs, run)
	if err := writeBenchFile(outPath, res); err != nil {
		return nil, err
	}
	return res, nil
}

func iosRow(path, precision string, batch int, r testing.BenchmarkResult, sched *ios.Schedule) IOSBenchRow {
	row := IOSBenchRow{
		Path:       path,
		Precision:  precision,
		Batch:      batch,
		NsPerOp:    r.NsPerOp(),
		NsPerImg:   float64(r.NsPerOp()) / float64(batch),
		AllocsOp:   r.AllocsPerOp(),
		BytesOp:    r.AllocedBytesPerOp(),
		Iterations: r.N,
	}
	if sched != nil {
		row.Stages = len(sched.Stages)
		row.Schedule = sched.Compact()
	}
	return row
}

func mergeIOSRun(runs []IOSBenchRun, run IOSBenchRun) []IOSBenchRun {
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

// Render writes the comparison table, one block per GOMAXPROCS run.
func (r *IOSBenchResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "IOS on the real inference path — %s\n", r.Model)
	for _, run := range r.Runs {
		fmt.Fprintf(&b, "GOMAXPROCS=%d, pool workers=%d, measured ops=%d, deterministic=%t\n",
			run.GOMAXPROCS, run.PoolWorkers, run.MeasuredOps, run.Deterministic)
		fmt.Fprintf(&b, "%-10s %-5s %6s %14s %14s %12s %7s\n", "path", "prec", "batch", "ns/op", "ns/image", "allocs/op", "stages")
		for _, row := range run.Rows {
			stages := "-"
			if row.Stages > 0 {
				stages = fmt.Sprintf("%d", row.Stages)
			}
			fmt.Fprintf(&b, "%-10s %-5s %6d %14d %14.0f %12d %7s\n",
				row.Path, row.Precision, row.Batch, row.NsPerOp, row.NsPerImg, row.AllocsOp, stages)
		}
		for _, row := range run.Rows {
			if row.Schedule != "" {
				fmt.Fprintf(&b, "%s batch %d schedule: %s\n", row.Precision, row.Batch, row.Schedule)
			}
		}
		fmt.Fprintf(&b, "fp32 gain: %.2fx at batch 1, %.2fx at batch 16\n", run.GainBatch1, run.GainBatch16)
		fmt.Fprintf(&b, "int8 gain: %.2fx at batch 1, %.2fx at batch 16\n", run.Int8GainBatch1, run.Int8GainBatch16)
	}
	return b.String()
}
