// drainnet-ios optimizes a model's execution schedule with the IOS
// dynamic program and reports sequential vs optimized latency, like the
// paper's IOS_Model.py artifact.
//
// Two cost oracles are available. The default simulated oracle prices
// stages on the modeled GPU and reports simulated latencies. The
// measured oracle builds the real network, benchmarks each operator on
// this machine (memoized in -cost-cache), optimizes against those
// wall-clock costs, and reports *measured* CPU latencies of the
// sequential fast path vs the scheduled executor.
//
// Usage:
//
//	drainnet-ios -model sppnet2 -batch 1
//	drainnet-ios -model sppnet2 -batches 1,2,4,8,16,32,64
//	drainnet-ios -model original -show-schedule
//	drainnet-ios -oracle measured -scale 8 -batches 1,16 -cost-cache costs.json
//	drainnet-ios -oracle measured -scale 8 -emit-schedule sched.json
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"runtime"

	"drainnet/internal/experiments"
	"drainnet/internal/graph"
	"drainnet/internal/ios"
	"drainnet/internal/model"
	"drainnet/internal/nn"
	"drainnet/internal/tensor"
)

func main() {
	name := flag.String("model", "sppnet2", "preset: original, sppnet1, sppnet2, sppnet3")
	notation := flag.String("notation", "", "explicit layer notation (overrides -model)")
	batch := flag.Int("batch", 1, "batch size")
	batches := flag.String("batches", "", "comma-separated batch sweep (overrides -batch)")
	show := flag.Bool("show-schedule", false, "print the optimized stage/group structure")
	oracleKind := flag.String("oracle", "sim", "cost oracle: sim (GPU simulator) or measured (wall-clock operator timings on this machine)")
	scale := flag.Int("scale", 1, "width scale divisor (1 = paper widths; larger = thinner model, CPU-friendly)")
	costCache := flag.String("cost-cache", "", "measured-oracle cost cache file (loaded if present, saved after measuring)")
	emit := flag.String("emit-schedule", "", "write the optimized schedule as JSON to this file (sweeps append .b<batch>)")
	flag.Parse()

	var cfg model.Config
	var err error
	if *notation != "" {
		cfg, err = model.ParseNotation("custom", *notation)
	} else {
		switch strings.ToLower(*name) {
		case "original":
			cfg = model.OriginalSPPNet()
		case "sppnet1":
			cfg = model.SPPNet1()
		case "sppnet2":
			cfg = model.SPPNet2()
		case "sppnet3":
			cfg = model.SPPNet3()
		default:
			err = fmt.Errorf("unknown model %q", *name)
		}
	}
	if err != nil {
		fatal(err)
	}
	cfg = cfg.Scaled(*scale)
	g, err := cfg.BuildScaledGraph()
	if err != nil {
		fatal(err)
	}

	var sweep []int
	if *batches != "" {
		for _, f := range strings.Split(*batches, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || v < 1 {
				fatal(fmt.Errorf("bad batch %q", f))
			}
			sweep = append(sweep, v)
		}
	} else {
		sweep = []int{*batch}
	}

	emitFile := func(sched *ios.Schedule, b int) {
		if *emit == "" {
			return
		}
		path := *emit
		if len(sweep) > 1 {
			path = fmt.Sprintf("%s.b%d", path, b)
		}
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		if err := ios.SaveSchedule(f, sched); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
	}

	switch *oracleKind {
	case "sim":
		runSim(cfg, g, sweep, *show, emitFile)
	case "measured":
		runMeasured(cfg, g, sweep, *show, *costCache, emitFile)
	default:
		fatal(fmt.Errorf("unknown oracle %q (want sim or measured)", *oracleKind))
	}
}

// runSim prices and replays schedules on the simulated GPU (the paper's
// offline study).
func runSim(cfg model.Config, g *graph.Graph, sweep []int, show bool, emit func(*ios.Schedule, int)) {
	dev := experiments.Device()
	rt := ios.NewRuntime(dev)
	oracle := ios.NewSimOracle(dev)
	fmt.Printf("model: %s  (%s, scale %d)\ndevice: %s\n", cfg.Name, cfg.Notation(), cfg.WidthScale, dev.Name)
	fmt.Printf("%6s %14s %14s %9s %16s\n", "batch", "seq ms", "IOS ms", "gain", "IOS µs/image")
	for _, b := range sweep {
		seq := rt.Measure(g, ios.SequentialSchedule(g), b)
		sched, err := ios.Optimize(g, oracle, b)
		if err != nil {
			fatal(err)
		}
		opt := rt.Measure(g, sched, b)
		fmt.Printf("%6d %14.3f %14.3f %8.2fx %16.1f\n",
			b, seq.LatencyNs/1e6, opt.LatencyNs/1e6, seq.LatencyNs/opt.LatencyNs, opt.EfficiencyNsPerImage/1e3)
		if show {
			fmt.Print(sched.String())
		}
		emit(sched, b)
	}
}

// runMeasured builds the real network, optimizes against wall-clock
// operator costs, and reports measured CPU latencies: the sequential
// zero-alloc fast path vs the scheduled executor.
func runMeasured(cfg model.Config, g *graph.Graph, sweep []int, show bool, cachePath string, emit func(*ios.Schedule, int)) {
	net, err := cfg.Build(rand.New(rand.NewSource(1)))
	if err != nil {
		fatal(err)
	}
	nn.PrepareInferenceParallel(net)
	prog, err := nn.CompileGraph(net, g)
	if err != nil {
		fatal(err)
	}
	cache := ios.NewCostCache()
	if cachePath != "" {
		if cache, err = ios.LoadCostCache(cachePath); err != nil {
			fatal(err)
		}
	}
	before := cache.Len()
	oracle := ios.NewMeasuredOracle(prog, cache)

	fmt.Printf("model: %s  (%s, scale %d)\ndevice: this machine (GOMAXPROCS=%d, pool workers=%d)\n",
		cfg.Name, cfg.Notation(), cfg.WidthScale, runtime.GOMAXPROCS(0), tensor.PoolWorkers())
	fmt.Printf("%6s %14s %14s %9s %16s %8s\n", "batch", "seq ms", "IOS ms", "gain", "IOS µs/image", "stages")
	arena := tensor.NewArena()
	for _, b := range sweep {
		sched, err := ios.Optimize(g, oracle, b)
		if err != nil {
			fatal(err)
		}
		if err := oracle.Err(); err != nil {
			fatal(err)
		}
		exec, err := nn.NewScheduleExecutor(prog, sched)
		if err != nil {
			fatal(err)
		}
		x := tensor.New(b, cfg.InBands, cfg.InSize, cfg.InSize)
		fillRandom(x, int64(b))
		seqNs := timeNs(func() {
			arena.Reset()
			net.Infer(x, arena)
		})
		iosNs := timeNs(func() {
			arena.Reset()
			exec.Infer(x, arena)
		})
		fmt.Printf("%6d %14.3f %14.3f %8.2fx %16.1f %8d\n",
			b, seqNs/1e6, iosNs/1e6, seqNs/iosNs, iosNs/float64(b)/1e3, len(sched.Stages))
		if show {
			fmt.Print(sched.String())
		}
		emit(sched, b)
	}
	if cachePath != "" && cache.Len() != before {
		if err := cache.Save(cachePath); err != nil {
			fatal(err)
		}
		fmt.Printf("saved %d operator measurements to %s\n", cache.Len(), cachePath)
	}
}

// timeNs reports the trimmed-mean wall-clock nanoseconds of f over a
// short warmup + sample loop.
func timeNs(f func()) float64 {
	for i := 0; i < 2; i++ {
		f()
	}
	samples := make([]float64, 8)
	for i := range samples {
		start := time.Now()
		f()
		samples[i] = float64(time.Since(start))
	}
	sort.Float64s(samples)
	kept := samples[2:6]
	total := 0.0
	for _, v := range kept {
		total += v
	}
	return total / float64(len(kept))
}

func fillRandom(t *tensor.Tensor, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	d := t.Data()
	for i := range d {
		d[i] = rng.Float32()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "drainnet-ios:", err)
	os.Exit(1)
}
