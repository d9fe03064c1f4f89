package model

import (
	"math/rand"
	"testing"

	"drainnet/internal/metrics"
	"drainnet/internal/nn"
	"drainnet/internal/tensor"
)

// validKernelNames accepts every reportable kernel string.
var validKernelNames = map[string]bool{
	"im2col": true, "winograd": true, "nchwc": true, "direct": true, KernelInt8: true,
}

// The tuner must produce one entry per conv layer, pick only eligible
// kernels, and return a servable net. With a generous epsilon the first
// measured mix must survive the gate unchanged.
func TestAutotuneKernels(t *testing.T) {
	net := inferTestNet(t)
	ds := quantCalibData(rand.New(rand.NewSource(21)), 32)
	dec, err := QuantizeGated(net, ds, QuantOptions{MaxAPDrop: 1.0})
	if err != nil {
		t.Fatalf("QuantizeGated: %v", err)
	}

	plan, err := AutotuneKernels(net, dec.Net, []int{4, 40, 40}, ds, KernelOptions{MaxAPDrop: 1.0})
	if err != nil {
		t.Fatalf("AutotuneKernels: %v", err)
	}
	if len(plan.Layers) == 0 {
		t.Fatal("no conv layers tuned")
	}
	if plan.Served == nil {
		t.Fatal("plan has no served net")
	}
	if plan.Cache == nil {
		t.Fatal("plan has no measurement cache")
	}
	if plan.Demotions != 0 {
		t.Fatalf("epsilon 1.0 must keep the first mix (demotions %d, drop %v)", plan.Demotions, plan.Drop)
	}
	for _, l := range plan.Layers {
		if !validKernelNames[l.Batch1] || !validKernelNames[l.BatchN] {
			t.Fatalf("layer %d: invalid kernels %q/%q", l.Layer, l.Batch1, l.BatchN)
		}
		if l.Precision != string(PrecisionFP32) && l.Precision != string(PrecisionInt8) {
			t.Fatalf("layer %d: invalid precision %q", l.Layer, l.Precision)
		}
		if (l.Precision == string(PrecisionInt8)) != (l.Batch1 == KernelInt8) {
			t.Fatalf("layer %d: precision %q inconsistent with kernel %q", l.Layer, l.Precision, l.Batch1)
		}
		if l.SpeedupB1 <= 0 || l.SpeedupBN <= 0 {
			t.Fatalf("layer %d: non-positive speedups %+v", l.Layer, l)
		}
	}
	if plan.Mix() == "" {
		t.Fatal("empty mix summary")
	}

	// The served net must actually run, at both batch buckets.
	rng := rand.New(rand.NewSource(22))
	a := tensor.NewArena()
	for _, b := range []int{1, 16} {
		x := randClip(rng, b, 4, 40)
		a.Reset()
		dets := InferDetect(plan.Served, x, a, nil)
		if len(dets) != b {
			t.Fatalf("batch %d: served net returned %d detections", b, len(dets))
		}
	}
}

// Without calibration data there is nothing to prove Winograd safe, so
// every fp32 layer must end on an exact kernel and the served net is the
// fp32 net itself.
func TestAutotuneKernelsNoCalib(t *testing.T) {
	net := inferTestNet(t)
	plan, err := AutotuneKernels(net, nil, []int{4, 40, 40}, nil, KernelOptions{})
	if err != nil {
		t.Fatalf("AutotuneKernels: %v", err)
	}
	if plan.Served != net {
		t.Fatal("without a quantized net the served net must be the fp32 net")
	}
	for _, l := range plan.Layers {
		if l.Precision != string(PrecisionFP32) {
			t.Fatalf("layer %d: precision %q without a quantized net", l.Layer, l.Precision)
		}
		if l.Batch1 == "winograd" || l.BatchN == "winograd" {
			t.Fatalf("layer %d: winograd served without calibration data", l.Layer)
		}
	}
	if plan.FP32AP != 0 || plan.TunedAP != 0 || plan.Drop != 0 {
		t.Fatalf("no-calib plan must not report APs: %+v", plan)
	}
	// The retargeted choices must still be installed and servable.
	rng := rand.New(rand.NewSource(23))
	a := tensor.NewArena()
	x := randClip(rng, 4, 4, 40)
	if dets := InferDetect(plan.Served, x, a, nil); len(dets) != 4 {
		t.Fatalf("served net returned %d detections, want 4", len(dets))
	}
}

// The gate invariant: whatever the epsilon, a served mix containing any
// non-exact choice must have passed it, and warm-cache retuning must
// reproduce the exact same plan.
func TestAutotuneKernelsGateAndWarmCache(t *testing.T) {
	net := inferTestNet(t)
	ds := quantCalibData(rand.New(rand.NewSource(24)), 32)
	dec, err := QuantizeGated(net, ds, QuantOptions{MaxAPDrop: 1.0})
	if err != nil {
		t.Fatalf("QuantizeGated: %v", err)
	}
	plan, err := AutotuneKernels(net, dec.Net, []int{4, 40, 40}, ds, KernelOptions{MaxAPDrop: -2})
	if err != nil {
		t.Fatalf("AutotuneKernels: %v", err)
	}
	exact := true
	for _, l := range plan.Layers {
		if l.Precision == string(PrecisionInt8) || l.Batch1 == "winograd" || l.BatchN == "winograd" {
			exact = false
		}
	}
	if !exact && plan.Drop > plan.Epsilon {
		t.Fatalf("non-exact mix served with drop %v > epsilon %v", plan.Drop, plan.Epsilon)
	}
	if exact && plan.Drop != 0 {
		t.Fatalf("exact mix must report zero drop, got %v", plan.Drop)
	}

	// Retune from the returned cache: every measurement is warm, so the
	// selection (a pure function of the cached costs) must be identical.
	again, err := AutotuneKernels(net, dec.Net, []int{4, 40, 40}, ds, KernelOptions{MaxAPDrop: -2, Cache: plan.Cache})
	if err != nil {
		t.Fatalf("AutotuneKernels(warm): %v", err)
	}
	if len(again.Layers) != len(plan.Layers) {
		t.Fatalf("warm retune changed layer count: %d vs %d", len(again.Layers), len(plan.Layers))
	}
	for i := range plan.Layers {
		if again.Layers[i] != plan.Layers[i] {
			t.Fatalf("warm retune changed layer %d: %+v vs %+v", i, again.Layers[i], plan.Layers[i])
		}
	}
}

// Steady-state serving on the tuned kernels must allocate nothing, like
// the im2col and int8 fast paths. Wired into `make check` (check-allocs).
func TestTunedInferSteadyStateZeroAlloc(t *testing.T) {
	net := inferTestNet(t)
	for _, m := range net.Modules() {
		c, ok := nn.Unwrap(m).(*nn.Conv2D)
		if !ok || c.Algo != nn.ConvIm2Col {
			continue
		}
		// Exercise every variant: winograd at batch>1 where eligible,
		// direct at batch 1, NCHWc otherwise.
		bn := nn.KernelNCHWc
		if c.KernelEligible(nn.KernelWinograd) {
			bn = nn.KernelWinograd
		}
		c.SetKernels(nn.KernelDirect, bn)
	}
	nn.PrepareInferenceParallel(net)
	rng := rand.New(rand.NewSource(25))
	x1 := randClip(rng, 1, 4, 40)
	xN := randClip(rng, 4, 4, 40)
	a := tensor.NewArena()
	var dets []metrics.Detection
	run := func() {
		a.Reset()
		dets = InferDetect(net, x1, a, dets)
		a.Reset()
		dets = InferDetect(net, xN, a, dets)
	}
	run()
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("steady-state tuned InferDetect allocates %v times per run, want 0", allocs)
	}
}
