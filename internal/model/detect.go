package model

import (
	"fmt"
	"math"
	"strings"

	"drainnet/internal/metrics"
	"drainnet/internal/nn"
	"drainnet/internal/tensor"
)

// Detect runs the network on a batch (N×C×H×W) and decodes the 5-way head
// output into detections: sigmoid(objectness logit) as the score and the
// raw regressed box, clamped to the unit square.
func Detect(net *nn.Sequential, x *tensor.Tensor) []metrics.Detection {
	return decodeHead(net.Forward(x))
}

// InferDetect is the serving fast path: the network runs in inference
// mode (no gradient caches, packed weights, fused epilogues) with all
// temporaries drawn from the caller's arena, and the decoded detections
// are appended to dst (reusing its backing array). The caller must Reset
// the arena between batches; with a warm arena and cap(dst) ≥ batch size
// the whole call performs zero heap allocations. Results are bit-for-bit
// identical to Detect. net may serve many goroutines at once, each with
// its own arena.
func InferDetect(net *nn.Sequential, x *tensor.Tensor, a *tensor.Arena, dst []metrics.Detection) []metrics.Detection {
	return InferDetectHook(net, x, a, dst, nil)
}

// InferDetectHook is InferDetect with each module timed through hook
// (nil is InferDetect). The trace-sampled serving path uses it, so a
// traced batch is timed on exactly the path that serves it.
func InferDetectHook(net *nn.Sequential, x *tensor.Tensor, a *tensor.Arena, dst []metrics.Detection, hook nn.LayerHook) []metrics.Detection {
	return decodeHeadInto(net.InferRange(x, a, 0, len(net.Modules()), hook), dst)
}

// LayerName names a module for telemetry: its concrete type without the
// package qualifier (Conv2D, MaxPool2D, SPP, Linear, ...). Quantized
// wrappers report their fp32 base kind, so int8 layers read Conv2D and
// Linear too.
func LayerName(m nn.Module) string {
	return strings.TrimPrefix(fmt.Sprintf("%T", nn.Unwrap(m)), "*nn.")
}

func decodeHead(out *tensor.Tensor) []metrics.Detection {
	return decodeHeadInto(out, make([]metrics.Detection, 0, out.Dim(0)))
}

func decodeHeadInto(out *tensor.Tensor, dst []metrics.Detection) []metrics.Detection {
	n := out.Dim(0)
	if cap(dst) < n {
		dst = make([]metrics.Detection, n)
	}
	dets := dst[:n]
	// Index the head rows directly: At's variadic index list would heap-
	// allocate on every call, and this loop is inside the zero-alloc
	// serving guarantee.
	stride := out.Dim(1)
	data := out.Data()
	for i := 0; i < n; i++ {
		dets[i] = decodeRow(data[i*stride : i*stride+5])
	}
	return dets
}

// decodeRow decodes one 5-way head row into a detection. Shared between
// the wholesale decode and the dynamic path's scatter of tail survivors.
func decodeRow(row []float32) metrics.Detection {
	score := 1 / (1 + math.Exp(-float64(row[0])))
	return metrics.Detection{
		Score: score,
		Box: metrics.Box{
			CX: clamp01(float64(row[1])),
			CY: clamp01(float64(row[2])),
			W:  clamp01(float64(row[3])),
			H:  clamp01(float64(row[4])),
		},
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// TargetsToGroundTruth converts supervision targets to the metrics form.
func TargetsToGroundTruth(targets []nn.DetectionTarget) []metrics.GroundTruth {
	gts := make([]metrics.GroundTruth, len(targets))
	for i, t := range targets {
		gts[i] = metrics.GroundTruth{
			HasObject: t.HasObject,
			Box: metrics.Box{
				CX: float64(t.CX), CY: float64(t.CY),
				W: float64(t.W), H: float64(t.H),
			},
		}
	}
	return gts
}
