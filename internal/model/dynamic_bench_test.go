package model

import (
	"math"
	"math/rand"
	"testing"

	"drainnet/internal/nn"
	"drainnet/internal/tensor"
)

// BenchmarkDynamicEmptyTraffic measures the dynamic path on an
// all-background batch — the empty-tile regime the masked kernels and
// the early exit are built for — against the static fast path on the
// same batch. Run with -cpuprofile to see where the dynamic pass spends.
func BenchmarkDynamicEmptyTraffic(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	cfg := OriginalSPPNet().Scaled(16).WithInput(4, 40)
	net, err := cfg.Build(rng)
	if err != nil {
		b.Fatal(err)
	}
	nn.PrepareInferenceParallel(net)
	spp, err := SPPIndex(net)
	if err != nil {
		b.Fatal(err)
	}

	x := tensor.New(16, 4, 40, 40)
	for i := range x.Data() {
		ch := (i / (40 * 40)) % 4
		x.Data()[i] = 0.1*float32(ch) + 0.01*float32(rng.NormFloat64())
	}

	plan := &DynamicPlan{
		SPPIndex:      spp,
		ExitEnabled:   true,
		MaskEnabled:   true,
		MaskThreshold: 0.5,
		Exit: &ExitHead{
			W:         make([]float32, 32),
			Threshold: float32(math.Inf(1)), // everything exits
		},
		Stats:     &nn.MaskStats{},
		ExitStats: &ExitStats{},
	}
	for i := range plan.Exit.W {
		plan.Exit.W[i] = 0.01
	}
	dm, err := nn.CloneShared(net)
	if err != nil {
		b.Fatal(err)
	}
	dynNet := dm.(*nn.Sequential)
	plan.Apply(dynNet)
	exec := NewDynamicExec(dynNet, plan)

	a := tensor.NewArena()
	dets := exec.InferDetect(x, a, nil, nil)

	b.Run("static", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a.Reset()
			dets = InferDetect(net, x, a, dets)
		}
	})
	b.Run("dynamic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a.Reset()
			dets = exec.InferDetect(x, a, dets, nil)
		}
	})
	_ = dets
}
