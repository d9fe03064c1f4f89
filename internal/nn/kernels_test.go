package nn

import (
	"math"
	"math/rand"
	"testing"

	"drainnet/internal/tensor"
)

// kernelTestNet is a conv stack with a winograd-eligible 3×3 stride-1
// layer, a strided layer (winograd-ineligible) and ReLU fusion points,
// so the dispatch test exercises both fused and unfused epilogues.
func kernelTestNet(rng *rand.Rand) *Sequential {
	return NewSequential(
		NewConv2D(rng, 3, 8, 3, 1),
		NewReLU(),
		NewMaxPool2D(2, 2),
		NewConv2D(rng, 8, 12, 3, 1),
		NewReLU(),
	)
}

func netConvs(s *Sequential) []*Conv2D {
	var cs []*Conv2D
	for _, m := range s.Modules() {
		if c, ok := Unwrap(m).(*Conv2D); ok {
			cs = append(cs, c)
		}
	}
	return cs
}

// Every kernel choice must agree with the default im2col fast path
// through the full Infer chain — bitwise for the exact kernels, within
// float32 tolerance for Winograd — at batch 1 and batch 16.
func TestConvKernelDispatchParity(t *testing.T) {
	for _, k := range ConvKernels() {
		rng := rand.New(rand.NewSource(81))
		ref := kernelTestNet(rng)
		PrepareInferenceParallel(ref)

		rng = rand.New(rand.NewSource(81))
		tuned := kernelTestNet(rng)
		for _, c := range netConvs(tuned) {
			if c.KernelEligible(k) {
				c.SetKernels(k, k)
			}
		}
		PrepareInferenceParallel(tuned)

		ra, ta := tensor.NewArena(), tensor.NewArena()
		for _, n := range []int{1, 16} {
			x := randInput(rng, n, 3, 21, 19) // odd dims: winograd edge clip
			ra.Reset()
			ta.Reset()
			want := ref.Infer(x, ra)
			got := tuned.Infer(x, ta)
			for i := range want.Data() {
				wv, gv := want.Data()[i], got.Data()[i]
				if k.Exact() {
					if wv != gv {
						t.Fatalf("kernel %s batch %d: element %d = %v, want %v (bitwise)", k, n, i, gv, wv)
					}
					continue
				}
				diff := math.Abs(float64(gv - wv))
				tol := 1e-4 * math.Max(1, math.Abs(float64(wv)))
				if diff > tol {
					t.Fatalf("kernel %s batch %d: element %d = %v, want %v (diff %v)", k, n, i, gv, wv, diff)
				}
			}
		}
	}
}

// Kernel choices and their packed layouts must survive shared cloning,
// so every serving replica runs the tuned mix.
func TestConvKernelCloneSharedKeepsChoice(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	net := kernelTestNet(rng)
	for _, c := range netConvs(net) {
		c.SetKernels(KernelDirect, KernelWinograd)
	}
	clone, err := CloneShared(net)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range netConvs(clone.(*Sequential)) {
		b1, bn := c.Kernels()
		if b1 != KernelDirect || bn != KernelWinograd {
			t.Fatalf("clone kernels = (%s, %s), want (direct, winograd)", b1, bn)
		}
	}
	// The clone must compute the same function as the original.
	x := randInput(rng, 2, 3, 12, 12)
	a1, a2 := tensor.NewArena(), tensor.NewArena()
	want := net.Infer(x, a1)
	got := clone.(*Sequential).Infer(x, a2)
	for i := range want.Data() {
		if want.Data()[i] != got.Data()[i] {
			t.Fatalf("clone diverges at %d", i)
		}
	}
}

// Winograd eligibility is geometric: 3×3 stride-1 only, and legacy
// ConvDirect-algo layers are never retargetable.
func TestConvKernelEligibility(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	s1 := NewConv2D(rng, 3, 4, 3, 1)
	if !s1.KernelEligible(KernelWinograd) {
		t.Fatal("3x3 stride-1 conv must be winograd-eligible")
	}
	s2 := NewConv2D(rng, 3, 4, 3, 2)
	if s2.KernelEligible(KernelWinograd) {
		t.Fatal("strided conv must not be winograd-eligible")
	}
	k5 := NewConv2D(rng, 3, 4, 5, 1)
	if k5.KernelEligible(KernelWinograd) {
		t.Fatal("5x5 conv must not be winograd-eligible")
	}
	if !k5.KernelEligible(KernelNCHWc) || !k5.KernelEligible(KernelDirect) {
		t.Fatal("5x5 conv must be nchwc/direct-eligible")
	}
	legacy := NewConv2D(rng, 3, 4, 3, 1)
	legacy.Algo = ConvDirect
	for _, k := range ConvKernels() {
		if legacy.KernelEligible(k) {
			t.Fatalf("legacy ConvDirect layer must not be %s-eligible", k)
		}
	}
}

// PrepareInferenceParallel must leave the net in the same servable state
// as packing on first use: a prepared net and a never-prepared twin
// (whose first Infer packs the panels) agree bitwise, for the default
// im2col kernels and for a tuned mix.
func TestPrepareInferenceParallelMatchesFirstUsePacking(t *testing.T) {
	for _, tuned := range []bool{false, true} {
		rng := rand.New(rand.NewSource(84))
		lazy := kernelTestNet(rng)
		rng = rand.New(rand.NewSource(84))
		par := kernelTestNet(rng)
		if tuned {
			for _, net := range []*Sequential{lazy, par} {
				for _, c := range netConvs(net) {
					c.SetKernels(KernelNCHWc, KernelWinograd)
				}
			}
		}
		PrepareInferenceParallel(par)
		for _, n := range []int{1, 4} {
			x := randInput(rng, n, 3, 16, 16)
			a1, a2 := tensor.NewArena(), tensor.NewArena()
			want := lazy.Infer(x, a1)
			got := par.Infer(x, a2)
			for i := range want.Data() {
				if want.Data()[i] != got.Data()[i] {
					t.Fatalf("tuned=%v batch %d: parallel-prepared net diverges at %d", tuned, n, i)
				}
			}
		}
	}
}
