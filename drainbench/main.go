// drainbench is drainnet's end-to-end benchmark. It trains the reference
// detector, starts drainnet-serve in the served configuration
// (-precision auto -dynamic), drives one named workload from this single
// load-generator process, checks every output, and prints the metrics by
// name with units and sample counts. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash drainbench/run.sh --workload detect --seed 1 --seconds 25 --trace 0
//
// Workloads: detect (interactive /v1/detect at fixed rates plus a capacity
// ladder), survey (a 1024² all-scenario sweep job with the road×stream
// prior) and dense-mixed (a brute-force stride-10 sweep), the two sweep
// workloads beside an open-loop /v1/detect trickle. --workload all runs
// the three in turn. --trace 1 repeats the workload with every request
// trace-sampled and reports per-layer metrics instead (see traced.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"

	"drainnet/internal/provenance"
	"drainnet/internal/serve"
	"drainnet/internal/sweep"
)

func main() {
	workload := flag.String("workload", "", "detect, survey, dense-mixed, or all")
	seed := flag.Int64("seed", 1, "workload seed: arrival schedules, clip order, sweep raster seeds")
	seconds := flag.Float64("seconds", 25, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	binDir := flag.String("bin", "", "directory holding drainnet-serve and drainnet-train")
	work := flag.String("work", "", "working directory for checkpoints, logs, traces and results")
	flag.Parse()
	// The load generator runs on one P: two connections need no more, and
	// a second P only contends with the server for the host's CPUs (it
	// doubled run-to-run spread of detect p50 on a 2-vCPU host).
	runtime.GOMAXPROCS(1)
	if err := run(*workload, *seed, *seconds, *trace == 1, *binDir, *work); err != nil {
		fmt.Fprintln(os.Stderr, "drainbench:", err)
		os.Exit(1)
	}
}

// record is the per-run result file: the provenance, checkpoint and
// served plan behind the numbers.
type record struct {
	Workload      string             `json:"workload"`
	Seed          int64              `json:"seed"`
	Traced        bool               `json:"traced"`
	Provenance    *provenance.Stamp  `json:"provenance"`
	CheckpointSHA string             `json:"checkpoint_sha256"`
	Model         serve.ModelInfo    `json:"model"`
	Metrics       map[string]float64 `json:"metrics"`
	Checks        []string           `json:"failed_checks"`
	Jobs          []jobRecord        `json:"sweep_jobs,omitempty"`
}

type jobRecord struct {
	Seed    int64        `json:"raster_seed"`
	Seconds float64      `json:"seconds"`
	Status  sweep.Status `json:"status"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func run(workload string, seed int64, seconds float64, traced bool, binDir, work string) error {
	if workload != "all" && !slices.Contains(workloads, workload) {
		return fmt.Errorf("unknown workload %q (want one of %v or all)", workload, workloads)
	}
	if binDir == "" || work == "" {
		return fmt.Errorf("-bin and -work are required (run through drainbench/run.sh)")
	}
	e, err := prepare(binDir, work, seed, seconds, workload, traced)
	if err != nil {
		return err
	}
	fmt.Printf("drainbench workload=%s seed=%d seconds=%g traced=%t conns=%d gomaxprocs=%d checkpoint_sha256=%s ref_ap=%.4f\n",
		workload, seed, seconds, traced, e.conns, maxProcs(), e.ckptSHA, e.refAP)

	names := []string{workload}
	if workload == "all" {
		names = workloads
	}
	out := output{Metrics: map[string]Metric{}}
	var checks []string
	for _, name := range names {
		var res *wlResult
		var m *Metrics
		if traced {
			res, m, err = tracedRun(e, name)
		} else {
			res, err = untracedRun(e, name, workload == "all")
			if res != nil {
				m = res.e2e
			}
		}
		if err != nil {
			return err
		}
		printReport(res, m, traced)
		if err := saveRecord(e, res, m, traced); err != nil {
			return err
		}
		out.Attempted += res.attempted
		out.Failed += res.failed
		checks = append(checks, res.checks...)
		for _, k := range m.names {
			key := k
			if len(names) > 1 {
				key = name + "." + k
			}
			out.Metrics[key] = m.vals[k]
		}
	}
	if workload != "all" {
		if err := matchDeclared(out.Metrics, traced); err != nil {
			return err
		}
	}
	for _, c := range checks {
		fmt.Println("CHECK FAILED:", c)
	}
	out.Correct = len(checks) == 0
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !out.Correct {
		os.Exit(1)
	}
	return nil
}

// matchDeclared checks the reported metrics against BENCHMARK.json (in
// the working directory, the repository root): the end-to-end set
// untraced, the per-layer set traced, with the declared units.
func matchDeclared(got map[string]Metric, traced bool) error {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	want := decl.EndToEnd
	if traced {
		want = decl.PerLayer
	}
	if len(got) != len(want) {
		return fmt.Errorf("reported %d metrics, BENCHMARK.json declares %d", len(got), len(want))
	}
	for _, w := range want {
		if g, ok := got[w.Name]; !ok || g.Unit != w.Unit {
			return fmt.Errorf("metric %s (%s) declared in BENCHMARK.json, reported as %+v", w.Name, w.Unit, g)
		}
	}
	return nil
}

func prepare(binDir, work string, seed int64, seconds float64, workload string, traced bool) (*env, error) {
	e := &env{binDir: binDir, work: work, seed: seed, seconds: seconds, conns: maxProcs()}
	e.runDir = filepath.Join(work, "runs", fmt.Sprintf("%s-seed%d-trace%t-%d", workload, seed, traced, os.Getpid()))
	if err := os.MkdirAll(e.runDir, 0o755); err != nil {
		return nil, err
	}
	var err error
	if e.ckpt, e.ckptSHA, err = referenceCheckpoint(binDir, work); err != nil {
		return nil, err
	}
	if e.clips, err = loadClips(); err != nil {
		return nil, err
	}
	net, err := e.clips.loadNet(e.ckpt)
	if err != nil {
		return nil, err
	}
	e.refAP = e.clips.referenceAP(net)
	return e, nil
}

// untracedRun measures the end-to-end metrics with tracing off; ladder
// adds detect's capacity ladder (--workload all).
func untracedRun(e *env, name string, ladder bool) (*wlResult, error) {
	res, _, err := runWorkload(e, name, "", ladder, 2)
	return res, err
}

func printReport(res *wlResult, m *Metrics, traced bool) {
	fmt.Printf("== %s: %d attempted, %d failed, model %s precision=%s\n",
		res.workload, res.attempted, res.failed, res.model.Notation, res.model.Precision)
	if d := res.model.Dynamic; d != nil {
		fmt.Printf("   plan: exit=%t mask=%t router=%t demotions=%d gate fp32_ap=%.4f dynamic_ap=%.4f epsilon=%.4f\n",
			d.ExitEnabled, d.MaskEnabled, d.RouterEnabled, d.Demotions, d.FP32AP, d.DynamicAP, d.Epsilon)
	}
	if !traced {
		for _, k := range res.named.names {
			v := res.named.vals[k]
			fmt.Printf("   %-24s %14.4f %-8s n=%d\n", k, v.Value, v.Unit, v.Samples)
		}
		return
	}
	for _, k := range m.names {
		v := m.vals[k]
		fmt.Printf("   %-28s %14.4f %-8s n=%-7d moves %s\n", k, v.Value, v.Unit, v.Samples, v.Moves)
	}
}

func saveRecord(e *env, res *wlResult, m *Metrics, traced bool) error {
	r := record{
		Workload: res.workload, Seed: e.seed, Traced: traced,
		Provenance: provenance.Collect(), CheckpointSHA: e.ckptSHA,
		Model: res.model, Metrics: map[string]float64{}, Checks: res.checks,
	}
	for _, jr := range res.jobs {
		r.Jobs = append(r.Jobs, jobRecord{Seed: jr.seed, Seconds: jr.seconds, Status: jr.status})
	}
	for _, set := range []*Metrics{res.named, m} {
		for _, k := range set.names {
			r.Metrics[k] = set.vals[k].Value
		}
	}
	dir := filepath.Join(e.work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%t.json", res.workload, e.seed, traced))
	fmt.Printf("   record %s (checkpoint_sha256=%s go=%s cpus=%d)\n", path, e.ckptSHA, r.Provenance.GoVersion, r.Provenance.NumCPU)
	return os.WriteFile(path, b, 0o644)
}
