package batcher

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"drainnet/internal/metrics"
	"drainnet/internal/model"
	"drainnet/internal/nn"
	"drainnet/internal/telemetry"
	"drainnet/internal/tensor"
	"drainnet/internal/terrain"
)

// dynCalib builds a separable synthetic split for the dynamic plan:
// negatives are near-flat background, positives carry a bright blob —
// the empty-tile skew the sweep traffic has.
func dynCalib(rng *rand.Rand, n int) *terrain.Dataset {
	ds := &terrain.Dataset{ClipSize: 40}
	for i := 0; i < n; i++ {
		img := tensor.New(4, 40, 40)
		data := img.Data()
		for j := range data {
			ch := j / (40 * 40)
			data[j] = 0.1*float32(ch) + 0.01*float32(rng.NormFloat64())
		}
		s := terrain.Sample{Image: img}
		if i%2 == 0 {
			r0, c0 := 8+rng.Intn(16), 8+rng.Intn(16)
			for ch := 0; ch < 4; ch++ {
				for r := r0; r < r0+8; r++ {
					for c := c0; c < c0+8; c++ {
						data[(ch*40+r)*40+c] += 3 + float32(rng.NormFloat64())
					}
				}
			}
			s.Target = nn.DetectionTarget{
				HasObject: true,
				CX:        (float32(c0) + 4) / 40,
				CY:        (float32(r0) + 4) / 40,
				W:         0.2, H: 0.2,
			}
		}
		ds.Samples = append(ds.Samples, s)
	}
	return ds
}

// dynClip renders one clip in the calibration distribution: empty
// background or background + blob.
func dynClip(seed int64, positive bool) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(1, 4, 40, 40)
	data := x.Data()
	for j := range data {
		ch := j / (40 * 40)
		data[j] = 0.1*float32(ch) + 0.01*float32(rng.NormFloat64())
	}
	if positive {
		for ch := 0; ch < 4; ch++ {
			for r := 14; r < 22; r++ {
				for c := 14; c < 22; c++ {
					data[(ch*40+r)*40+c] += 3 + float32(rng.NormFloat64())
				}
			}
		}
	}
	return x
}

// A pool serving with Options.Dynamic must answer mixed traffic through
// the dynamic executors, account exits and mask skips in Stats, and
// leave positives on the full-path score scale.
func TestDynamicPoolServesAndAccountsExits(t *testing.T) {
	cfg := tinyConfig()
	net := tinyNet(t, cfg)
	nn.PrepareInferenceParallel(net)
	plan, err := model.PlanDynamic(net, dynCalib(rand.New(rand.NewSource(41)), 48),
		model.DynamicOptions{MaxAPDrop: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.ExitEnabled {
		t.Fatalf("exit demoted on separable calibration (drop %v)", plan.Drop)
	}
	p, err := New(cfg, net, Options{
		Replicas: 2, MaxBatch: 4, MaxWait: time.Millisecond, QueueSize: 64,
		Dynamic: &Dynamic{Spec: plan},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const n = 32
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = p.Submit(context.Background(), dynClip(int64(i), i%4 == 0))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}

	st := p.Stats()
	if !st.DynamicEnabled {
		t.Fatal("stats do not report the dynamic path")
	}
	if st.ExitRate <= 0 {
		t.Fatalf("exit rate %v after mostly-empty traffic, want > 0", st.ExitRate)
	}
	if plan.MaskEnabled && st.MaskRate <= 0 {
		t.Fatalf("mask rate %v with masking enabled, want > 0", st.MaskRate)
	}
	if st.Served != n {
		t.Fatalf("served %d, want %d", st.Served, n)
	}
}

// With a router-enabled plan and an int8 net, Submit must route each
// request and the pool must batch the two paths separately — both
// routed counters move and every request still gets an answer.
func TestDynamicPoolRoutesPerRequestPrecision(t *testing.T) {
	cfg := tinyConfig()
	net := tinyNet(t, cfg)
	nn.PrepareInferenceParallel(net)
	calib := dynCalib(rand.New(rand.NewSource(43)), 48)
	dec, err := model.QuantizeGated(net, calib, model.QuantOptions{MaxAPDrop: 1})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := model.PlanDynamic(net, calib, model.DynamicOptions{
		MaxAPDrop: 0.05,
		Int8:      &model.QuantDecision{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.RouterEnabled {
		t.Fatal("router not trained despite int8 gate")
	}
	p, err := New(cfg, net, Options{
		Replicas: 2, MaxBatch: 4, MaxWait: time.Millisecond, QueueSize: 64,
		Dynamic: &Dynamic{Spec: plan, Int8Net: dec.Net},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const n = 48
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = p.Submit(context.Background(), dynClip(int64(i), i%2 == 0))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	st := p.Stats()
	if st.RoutedInt8 == 0 || st.RoutedFP32 == 0 {
		t.Fatalf("router sent everything one way: int8=%d fp32=%d", st.RoutedInt8, st.RoutedFP32)
	}
	if st.RoutedInt8+st.RoutedFP32 != n {
		t.Fatalf("routed %d, want %d", st.RoutedInt8+st.RoutedFP32, n)
	}
}

// A trace-sampled batch is timed on the path that serves it, so tracing
// changes no answer: with early exit, masking and int8 routing all on,
// every clip's detection under SampleEvery 1 equals the one under
// SampleEvery 0 bit for bit, and the traced spans carry per-layer
// slices.
func TestTracedBatchesAnswerAsUntraced(t *testing.T) {
	cfg := tinyConfig()
	calib := dynCalib(rand.New(rand.NewSource(43)), 48)
	serve := func(sampleEvery int) ([]metrics.Detection, *model.DynamicPlan, *telemetry.Telemetry) {
		net := tinyNet(t, cfg)
		nn.PrepareInferenceParallel(net)
		dec, err := model.QuantizeGated(net, calib, model.QuantOptions{MaxAPDrop: 1})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := model.PlanDynamic(net, calib, model.DynamicOptions{
			MaxAPDrop: 0.05,
			Int8:      &model.QuantDecision{Enabled: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		tel := telemetry.New(telemetry.Options{SampleEvery: sampleEvery})
		t.Cleanup(tel.Close)
		p, err := New(cfg, net, Options{
			Replicas: 2, MaxBatch: 4, QueueSize: 64, Telemetry: tel,
			Dynamic: &Dynamic{Spec: plan, Int8Net: dec.Net},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		dets := make([]metrics.Detection, 16)
		var wg sync.WaitGroup
		for i := range dets {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				d, err := p.Submit(context.Background(), dynClip(int64(500+i), i%4 == 0))
				if err != nil {
					t.Error(err)
				}
				dets[i] = d
			}(i)
		}
		wg.Wait()
		return dets, plan, tel
	}

	plain, plan, _ := serve(0)
	if !plan.ExitEnabled || !plan.MaskEnabled || !plan.RouterEnabled {
		t.Fatalf("plan lost a mechanism (exit=%v mask=%v router=%v); the test needs all three",
			plan.ExitEnabled, plan.MaskEnabled, plan.RouterEnabled)
	}
	traced, _, tel := serve(1)
	exited := 0
	for i := range plain {
		if traced[i] != plain[i] {
			t.Errorf("clip %d: traced %+v, untraced %+v", i, traced[i], plain[i])
		}
		if plain[i].Exited {
			exited++
		}
	}
	if exited == 0 || exited == len(plain) {
		t.Fatalf("%d of %d clips exited; the test needs both exits and full-path answers", exited, len(plain))
	}
	tel.Close() // drain the span pipeline so the last trace is exported
	_, trace := tel.LatestTrace()
	if !strings.Contains(string(trace), `"cat":"kernel/layer"`) || !strings.Contains(string(trace), `"name":"Conv2D"`) {
		t.Fatalf("traced span has no per-layer Conv2D slice:\n%s", trace)
	}
}

// Dynamic does not compose with IOS schedules: New must refuse the
// combination instead of silently ignoring one of them.
func TestDynamicRejectsIOSPlan(t *testing.T) {
	cfg := tinyConfig()
	net := tinyNet(t, cfg)
	nn.PrepareInferenceParallel(net)
	plan, err := model.PlanDynamic(net, dynCalib(rand.New(rand.NewSource(47)), 32),
		model.DynamicOptions{MaxAPDrop: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(cfg, net, Options{
		Dynamic: &Dynamic{Spec: plan},
		Plan:    &model.SchedulePlan{},
	})
	if err == nil {
		t.Fatal("New accepted Dynamic + IOS Plan")
	}
}
