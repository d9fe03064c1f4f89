package nn

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"drainnet/internal/tensor"
)

// testNet builds a small SPP detection head covering every layer the
// serving fast path dispatches on: conv+ReLU fusion, max-pooling, SPP,
// linear+ReLU fusion, batch-norm running statistics, dropout identity
// and a sigmoid tail. Eval mode throughout so Forward and Infer compute
// the same function.
func testNet(rng *rand.Rand) *Sequential {
	bn := NewBatchNorm2D(6)
	bn.Training = false
	// Push the running stats off their init values so the eval-mode
	// normalization is non-trivial.
	for i := range bn.RunningMean {
		bn.RunningMean[i] = rng.NormFloat64() * 0.1
		bn.RunningVar[i] = 1 + rng.Float64()
	}
	drop := NewDropout(rng, 0.5)
	drop.Training = false
	spp := NewSPP(1, 2)
	return NewSequential(
		NewConv2D(rng, 3, 6, 3, 1),
		bn,
		NewReLU(),
		NewMaxPool2D(2, 2),
		NewConv2D(rng, 6, 8, 3, 2),
		NewReLU(),
		spp,
		NewLinear(rng, spp.OutFeatures(8), 16),
		NewReLU(),
		drop,
		NewLinear(rng, 16, 5),
		NewSigmoid(),
	)
}

func randInput(rng *rand.Rand, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	x.RandNormal(rng, 0, 1)
	return x
}

// The fast path must be bit-for-bit identical to the training-graph
// forward in eval mode: the serving layer's determinism test compares
// detections bitwise across the two paths.
func TestInferMatchesForwardBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	net := testNet(rng)
	PrepareInferenceParallel(net)
	a := tensor.NewArena()
	for _, n := range []int{1, 3, 16} {
		x := randInput(rng, n, 3, 20, 20)
		want := net.Forward(x)
		a.Reset()
		got := net.Infer(x, a)
		if got.Len() != want.Len() {
			t.Fatalf("n=%d: Infer len %d, Forward len %d", n, got.Len(), want.Len())
		}
		for i := range want.Data() {
			if want.Data()[i] != got.Data()[i] {
				t.Fatalf("n=%d: element %d: Infer %v != Forward %v",
					n, i, got.Data()[i], want.Data()[i])
			}
		}
	}
}

// Infer through a Flatten-based head (no SPP) exercises the arena View
// path.
func TestInferFlattenHeadMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	net := NewSequential(
		NewConv2D(rng, 2, 4, 3, 1),
		NewReLU(),
		NewMaxPool2D(2, 2),
		NewFlatten(),
		NewLinear(rng, 4*5*5, 7),
	)
	PrepareInferenceParallel(net)
	a := tensor.NewArena()
	x := randInput(rng, 2, 2, 10, 10)
	want := net.Forward(x)
	got := net.Infer(x, a)
	for i := range want.Data() {
		if want.Data()[i] != got.Data()[i] {
			t.Fatalf("element %d: Infer %v != Forward %v", i, got.Data()[i], want.Data()[i])
		}
	}
}

// CloneShared makes variant copies: the copy shares every weight
// tensor and packed panel with the original but owns its kernel choice,
// so retargeting the copy leaves the original untouched, and both still
// compute the same function.
func TestCloneSharedSharesWeightsOwnsCaches(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	net := testNet(rng)
	PrepareInferenceParallel(net)
	cm, err := CloneShared(net)
	if err != nil {
		t.Fatalf("CloneShared: %v", err)
	}
	clone := cm.(*Sequential)

	// Every parameter tensor must be the same object, not a copy.
	orig, dup := net.Params(), clone.Params()
	if len(orig) != len(dup) {
		t.Fatalf("clone has %d params, original %d", len(dup), len(orig))
	}
	for i := range orig {
		if orig[i].Value != dup[i].Value {
			t.Fatalf("param %q value tensor was copied, not shared", orig[i].Name)
		}
	}
	// Mutable training state must be fresh: a cloned Dropout serves
	// deterministically regardless of the original's mode.
	for i, m := range clone.Modules() {
		if d, ok := m.(*Dropout); ok && d.Training {
			t.Fatalf("cloned Dropout at %d still in training mode", i)
		}
	}

	// The variant's kernel choice is its own; the packed panels are not.
	for i, m := range clone.Modules() {
		cc, ok := m.(*Conv2D)
		if !ok {
			continue
		}
		oc := net.Modules()[i].(*Conv2D)
		if cc.packed == nil || cc.packed != oc.packed {
			t.Fatalf("conv %d: clone does not share the original's packed panels", i)
		}
		cc.SetKernels(KernelDirect, KernelNCHWc)
		if b1, bn := oc.Kernels(); b1 != KernelIm2Col || bn != KernelIm2Col {
			t.Fatalf("conv %d: retargeting the clone changed the original to (%s, %s)", i, b1, bn)
		}
	}

	// Direct and NCHWc are exact, so the variant matches bit for bit.
	for _, n := range []int{1, 4} {
		x := randInput(rng, n, 3, 20, 20)
		want := net.Infer(x, tensor.NewArena())
		got := clone.Infer(x, tensor.NewArena())
		for i := range want.Data() {
			if got.Data()[i] != want.Data()[i] {
				t.Fatalf("batch %d: element %d = %v, want %v", n, i, got.Data()[i], want.Data()[i])
			}
		}
	}
}

// The training-path cols cache must track the current batch size instead
// of pinning per-sample buffers for the largest batch ever seen.
func TestConvColsCacheShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	conv := NewConv2D(rng, 2, 3, 3, 1)
	conv.Forward(randInput(rng, 8, 2, 10, 10))
	if len(conv.cols) != 8 {
		t.Fatalf("cols len = %d after batch 8", len(conv.cols))
	}
	conv.Forward(randInput(rng, 2, 2, 10, 10))
	if len(conv.cols) != 2 {
		t.Fatalf("cols len = %d after batch 2", len(conv.cols))
	}
	full := conv.cols[:cap(conv.cols)]
	for i := 2; i < len(full); i++ {
		if full[i] != nil {
			t.Fatalf("cols[%d] still retained after smaller batch", i)
		}
	}
}

// Inference mode must not touch the training cols cache at all.
func TestInferLeavesColsCacheEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	conv := NewConv2D(rng, 2, 3, 3, 1)
	a := tensor.NewArena()
	conv.Infer(randInput(rng, 4, 2, 10, 10), a)
	if conv.cols != nil {
		t.Fatalf("Infer populated the training cols cache (len %d)", len(conv.cols))
	}
}

// Direct and im2col convolutions must agree at stride > 1 and for even
// kernel sizes, where the output-size and padding arithmetic is easiest
// to get wrong.
func TestConvIm2ColVsDirectStrideAndEvenKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	cases := []struct{ k, stride int }{
		{2, 1}, {2, 2}, {4, 2}, {3, 2}, {3, 3}, {5, 3},
	}
	for _, tc := range cases {
		a := NewConv2D(rng, 3, 4, tc.k, tc.stride)
		b := &Conv2D{InC: 3, OutC: 4, Geom: a.Geom, Algo: ConvDirect,
			Weight: &Param{Name: "w", Value: a.Weight.Value.Clone(), Grad: tensor.New(a.Weight.Value.Shape()...)},
			Bias:   &Param{Name: "b", Value: a.Bias.Value.Clone(), Grad: tensor.New(a.Bias.Value.Shape()...)},
		}
		x := randInput(rng, 2, 3, 13, 13)
		ya := a.Forward(x)
		yb := b.Forward(x)
		if !ya.AllClose(yb, 1e-4, 1e-4) {
			t.Fatalf("k=%d stride=%d: direct and im2col conv disagree", tc.k, tc.stride)
		}
		// The inference fast path must agree with both on the same geometry.
		arena := tensor.NewArena()
		yi := a.Infer(x, arena)
		for i := range ya.Data() {
			if ya.Data()[i] != yi.Data()[i] {
				t.Fatalf("k=%d stride=%d: element %d Infer %v != Forward %v",
					tc.k, tc.stride, i, yi.Data()[i], ya.Data()[i])
			}
		}
	}
}

// Infer on one shared module must be reentrant for every conv kernel and
// for the int8 layers: concurrent calls, each with its own arena, match
// a sequential run bit for bit (per-call task state lives in the arena).
func TestInferReentrantAcrossKernels(t *testing.T) {
	nets := map[string]*Sequential{}
	for _, k := range ConvKernels() {
		rng := rand.New(rand.NewSource(76))
		net := testNet(rng)
		for _, m := range net.Modules() {
			if c, ok := m.(*Conv2D); ok {
				if k == KernelMasked {
					c.SetMask(ConvMask{Stats: &MaskStats{}})
				}
				if c.KernelEligible(k) {
					c.SetKernels(k, k)
				}
			}
		}
		PrepareInferenceParallel(net)
		nets[k.String()] = net
	}
	rng := rand.New(rand.NewSource(77))
	base := testNet(rng)
	cal := Calibrate(base, []*tensor.Tensor{randInput(rng, 4, 3, 20, 20)})
	q, _, err := QuantizeForInference(base, cal)
	if err != nil {
		t.Fatal(err)
	}
	nets["int8"] = q

	for name, net := range nets {
		for _, n := range []int{1, 3} {
			x := randInput(rand.New(rand.NewSource(78)), n, 3, 20, 20)
			want := net.Infer(x, tensor.NewArena()).Clone()
			var wg sync.WaitGroup
			results := make([]*tensor.Tensor, 8)
			for g := range results {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					a := tensor.NewArena()
					for i := 0; i < 4; i++ {
						a.Reset()
						results[g] = net.Infer(x, a)
					}
				}(g)
			}
			wg.Wait()
			for g, r := range results {
				for i, v := range want.Data() {
					if r.Data()[i] != v {
						t.Fatalf("%s batch %d goroutine %d: element %d = %v, want %v", name, n, g, i, r.Data()[i], v)
					}
				}
			}
		}
	}
}

// Infer writes no layer state, so a never-prepared module — whose first
// calls pack the weight panels — serves 8 goroutines at once, fp32 and
// int8 alike, and every result matches a sequential run on a prepared
// twin bit for bit.
func TestInferReentrantNeverPrepared(t *testing.T) {
	nets := func(prepare bool) map[string]*Sequential {
		rng := rand.New(rand.NewSource(79))
		fp32 := testNet(rng)
		cal := Calibrate(testNet(rand.New(rand.NewSource(79))), []*tensor.Tensor{randInput(rng, 4, 3, 20, 20)})
		i8, _, err := QuantizeForInference(testNet(rand.New(rand.NewSource(79))), cal)
		if err != nil {
			t.Fatal(err)
		}
		if prepare {
			PrepareInferenceParallel(fp32)
			PrepareInferenceParallel(i8)
		}
		return map[string]*Sequential{"fp32": fp32, "int8": i8}
	}
	cold, warm := nets(false), nets(true)
	for name, net := range cold {
		for _, n := range []int{1, 3} {
			x := randInput(rand.New(rand.NewSource(80)), n, 3, 20, 20)
			want := warm[name].Infer(x, tensor.NewArena())
			var wg sync.WaitGroup
			results := make([]*tensor.Tensor, 8)
			for g := range results {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					results[g] = net.Infer(x, tensor.NewArena())
				}(g)
			}
			wg.Wait()
			for g, r := range results {
				for i, v := range want.Data() {
					if r.Data()[i] != v {
						t.Fatalf("%s batch %d goroutine %d: element %d = %v, want %v", name, n, g, i, r.Data()[i], v)
					}
				}
			}
		}
	}
}

// A hooked InferRange reports every module once, in order — a ReLU
// fused into the preceding conv or linear reports zero, its clamp timed
// inside that layer — and computes exactly what the unhooked pass does.
func TestInferRangeHookReportsFusedModules(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	net := testNet(rng)
	x := randInput(rng, 2, 3, 20, 20)
	want := net.Infer(x, tensor.NewArena())
	var fusedReLUs []int
	next := 0
	got := net.InferRange(x, tensor.NewArena(), 0, len(net.Modules()), func(i int, m Module, d time.Duration) {
		if i != next || m != net.Modules()[i] {
			t.Errorf("hook reported module %d (%T), want module %d", i, m, next)
		}
		next++
		if d < 0 {
			t.Errorf("module %d: negative duration %v", i, d)
		}
		if _, ok := m.(*ReLU); ok && d == 0 {
			fusedReLUs = append(fusedReLUs, i)
		}
	})
	if next != len(net.Modules()) {
		t.Fatalf("hook saw %d of %d modules", next, len(net.Modules()))
	}
	// testNet: conv, bn, relu, pool, conv, relu, spp, linear, relu, drop,
	// linear, sigmoid. The first ReLU follows batch norm, so it runs on
	// its own; the other two fuse into the conv and linear before them.
	if fmt.Sprint(fusedReLUs) != "[5 8]" {
		t.Fatalf("zero-time (fused) ReLUs at %v, want [5 8]", fusedReLUs)
	}
	for i := range want.Data() {
		if got.Data()[i] != want.Data()[i] {
			t.Fatalf("element %d: hooked %v != unhooked %v", i, got.Data()[i], want.Data()[i])
		}
	}
}
