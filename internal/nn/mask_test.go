package nn

import (
	"math"
	"math/rand"
	"testing"

	"drainnet/internal/tensor"
)

func maskTestConv(t *testing.T, k, stride int) *Conv2D {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	c := NewConv2D(rng, 3, 10, k, stride)
	for i := range c.Bias.Value.Data() {
		c.Bias.Value.Data()[i] = float32(i%5)*0.1 - 0.2
	}
	return c
}

// With a threshold below any real activation energy every band stays
// active, and the masked kernel must be bit-identical to the im2col
// reference — the masked GEMM computes the same columns in the same
// accumulation order.
func TestMaskedConvAllActiveBitwise(t *testing.T) {
	for _, relu := range []bool{false, true} {
		for _, n := range []int{1, 4} {
			c := maskTestConv(t, 3, 1)
			ref := c.cloneShared().(*Conv2D)
			c.SetMask(ConvMask{BandRows: 3, Threshold: 1e-20})
			c.SetKernels(KernelMasked, KernelMasked)

			rng := rand.New(rand.NewSource(31))
			x := tensor.New(n, 3, 17, 13)
			for i := range x.Data() {
				x.Data()[i] = float32(rng.NormFloat64())
			}
			a1, a2 := tensor.NewArena(), tensor.NewArena()
			got := c.inferFused(x, a1, relu)
			want := ref.inferFused(x, a2, relu)
			for i := range want.Data() {
				if got.Data()[i] != want.Data()[i] {
					t.Fatalf("relu=%v n=%d: masked all-active differs at %d: %v vs %v",
						relu, n, i, got.Data()[i], want.Data()[i])
				}
			}
		}
	}
}

// A spatially constant input has zero deviation energy: every interior
// band masks, and the flat-response fill matches the exact conv output
// to float tolerance (same math, different accumulation order).
func TestMaskedConvFlatInputMasksAndApproximates(t *testing.T) {
	for _, n := range []int{1, 5} {
		c := maskTestConv(t, 3, 1)
		ref := c.cloneShared().(*Conv2D)
		stats := &MaskStats{}
		c.SetMask(ConvMask{BandRows: 4, Stats: stats})
		c.SetKernels(KernelMasked, KernelMasked)

		x := tensor.New(n, 3, 20, 15)
		for i := range x.Data() {
			ch := (i / (20 * 15)) % 3
			x.Data()[i] = 0.2 + 0.3*float32(ch)
		}
		a1, a2 := tensor.NewArena(), tensor.NewArena()
		got := c.inferFused(x, a1, true)
		want := ref.inferFused(x, a2, true)
		var maxErr float64
		for i := range want.Data() {
			d := math.Abs(float64(got.Data()[i] - want.Data()[i]))
			if d > maxErr {
				maxErr = d
			}
		}
		if maxErr > 1e-4 {
			t.Fatalf("n=%d: flat-input masked output off by %v", n, maxErr)
		}
		masked, total := stats.Counts()
		if total == 0 || masked == 0 {
			t.Fatalf("n=%d: expected masked bands on flat input, got %d/%d", n, masked, total)
		}
		// Only the two padding-adjacent bands per sample may stay active.
		if int(total-masked) > 2*n {
			t.Fatalf("n=%d: too few masked bands: %d/%d", n, masked, total)
		}
	}
}

// cloneShared must carry the mask spec and shared stats so batcher
// replicas keep masking and report into one counter.
func TestMaskedCloneSharedKeepsMask(t *testing.T) {
	c := maskTestConv(t, 3, 1)
	stats := &MaskStats{}
	c.SetMask(ConvMask{BandRows: 2, Threshold: 0.5, Stats: stats})
	c.SetKernels(KernelMasked, KernelMasked)
	cl := c.cloneShared().(*Conv2D)
	m := cl.Mask()
	if m.BandRows != 2 || m.Threshold != 0.5 || m.Stats != stats {
		t.Fatalf("cloneShared dropped mask spec: %+v", m)
	}
	if b1, bn := cl.Kernels(); b1 != KernelMasked || bn != KernelMasked {
		t.Fatalf("cloneShared dropped kernels: %s %s", b1, bn)
	}
	if !cl.KernelEligible(KernelMasked) {
		t.Fatal("clone not eligible for masked kernel")
	}
}

// InferRange split at any non-fused boundary must equal one full Infer.
func TestInferRangeSplitMatchesInfer(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	net := NewSequential(
		NewConv2D(rng, 2, 6, 3, 1),
		NewReLU(),
		NewMaxPool2D(2, 2),
		NewConv2D(rng, 6, 8, 3, 1),
		NewReLU(),
		NewMaxPool2D(2, 2),
		NewSPP(2, 1),
		NewLinear(rng, 8*5, 7),
		NewReLU(),
		NewLinear(rng, 7, 5),
	)
	PrepareInferenceParallel(net)
	x := tensor.New(3, 2, 16, 16)
	for i := range x.Data() {
		x.Data()[i] = float32(rng.NormFloat64())
	}
	aRef := tensor.NewArena()
	want := net.Infer(x, aRef)
	// Split at the SPP boundary (the dynamic path's seam) and at the
	// first pool: both are non-fused boundaries.
	for _, cut := range []int{3, 6} {
		a := tensor.NewArena()
		mid := net.InferRange(x, a, 0, cut, nil)
		got := net.InferRange(mid, a, cut, len(net.Modules()), nil)
		if got.Len() != want.Len() {
			t.Fatalf("cut %d: length %d vs %d", cut, got.Len(), want.Len())
		}
		for i := range want.Data() {
			if got.Data()[i] != want.Data()[i] {
				t.Fatalf("cut %d: differs at %d", cut, i)
			}
		}
	}
}
