package nn

import (
	"fmt"
	"time"

	"drainnet/internal/tensor"
)

// Inferencer is the inference-mode counterpart of Module.Forward. Infer
// computes the same values as Forward-in-eval-mode but skips every piece
// of backward bookkeeping (gradient caches, argmax maps, input
// retention) and draws all temporaries from the caller's arena, so a
// steady-state Infer pass performs no heap allocation. The returned
// tensor is arena-owned and only valid until the arena's next Reset.
//
// Infer on a layer whose math is shared with Forward (conv, linear,
// activations, pools) is bit-for-bit identical to the eval-mode Forward
// result: the kernels accumulate in the same order.
type Inferencer interface {
	Infer(x *tensor.Tensor, a *tensor.Arena) *tensor.Tensor
}

// fusedInferencer is implemented by layers whose epilogue can absorb a
// following ReLU (conv and linear), letting Sequential.Infer skip the
// separate activation pass over the output tensor.
type fusedInferencer interface {
	inferFused(x *tensor.Tensor, a *tensor.Arena, relu bool) *tensor.Tensor
}

// preparer is implemented by layers that pre-pack static state (packed
// weight panels) once before serving.
type preparer interface {
	prepareInference()
}

// sharedCloner produces a variant copy of a layer that shares all
// immutable state (weights, packed panels, running statistics) with the
// receiver, so the copy can take a different kernel choice or mask.
type sharedCloner interface {
	cloneShared() Module
}

// LayerHook observes one module of a hooked inference pass: the
// module's index in the Sequential, the module itself, and its wall
// time. Every module that runs reports once, in order, so reports stay
// aligned with the Sequential whatever fuses. A ReLU fused into the
// preceding Conv2D or Linear reports zero: its clamp ran inside that
// layer's epilogue and is timed there. The hook runs on the calling
// goroutine.
type LayerHook func(index int, m Module, d time.Duration)

// Infer runs the chain in inference mode, fusing each Conv2D/Linear with
// an immediately following ReLU into the producing layer's epilogue.
// Modules that do not implement Inferencer fall back to Forward.
//
// No Inferencer writes layer state: per-call temporaries and task
// descriptors live in the caller's arena, and weight panels are packed
// once under a per-layer sync.Once (or ahead of time by
// PrepareInferenceParallel). A module built from Inferencers may
// therefore serve any number of goroutines concurrently, each with its
// own arena.
func (s *Sequential) Infer(x *tensor.Tensor, a *tensor.Arena) *tensor.Tensor {
	return s.InferRange(x, a, 0, len(s.mods), nil)
}

// InferRange runs modules [lo, hi) of the chain in inference mode with
// the same ReLU-fusion rules as Infer; fusion lookahead never crosses
// hi, so a prefix run leaves a trailing activation for the tail run.
// Splitting Infer into InferRange(0, k) followed by InferRange(k, len)
// at any non-fused boundary produces the same values as one full Infer.
// This is the seam the dynamic inference path uses: the conv stack runs
// as a prefix, the early-exit probe reads its output, and only
// surviving samples pay for the SPP+FC tail.
//
// A non-nil hook times every module as it runs (the trace-sampled
// serving path); nil is the untimed hot path. The hook does not change
// what runs, so hooked and unhooked results are bit-identical.
func (s *Sequential) InferRange(x *tensor.Tensor, a *tensor.Arena, lo, hi int, hook LayerHook) *tensor.Tensor {
	for i := lo; i < hi; i++ {
		m := s.mods[i]
		var start time.Time
		if hook != nil {
			start = time.Now()
		}
		fused := false
		switch f := m.(type) {
		case fusedInferencer:
			if i+1 < hi {
				_, fused = s.mods[i+1].(*ReLU)
			}
			x = f.inferFused(x, a, fused)
		case Inferencer:
			x = f.Infer(x, a)
		default:
			x = m.Forward(x)
		}
		if hook != nil {
			hook(i, m, time.Since(start))
		}
		if fused {
			i++
			if hook != nil {
				hook(i, s.mods[i], 0)
			}
		}
	}
	return x
}

// PrepareInferenceParallel packs every packable layer's static weights
// (panel packing, Winograd transform, NCHWc blocking) for the fast
// path, spreading the per-layer work across the worker pool. Call once
// after the weights reach their serving values; Infer also packs on
// first use, so this is an optimization that moves the one-time cost to
// load time. Layers pack independent state, so the only coordination is
// the pool itself; a nested ParallelRange inside a layer's packing
// degrades inline.
func PrepareInferenceParallel(m Module) {
	var ps []preparer
	collectPreparers(m, &ps)
	tensor.ParallelFor(len(ps), func(i int) { ps[i].prepareInference() })
}

func collectPreparers(m Module, ps *[]preparer) {
	if p, ok := m.(preparer); ok {
		*ps = append(*ps, p)
	}
	if s, ok := m.(*Sequential); ok {
		for _, child := range s.mods {
			collectPreparers(child, ps)
		}
	}
}

// CloneShared builds a variant copy of a module tree: immutable state
// (weight tensors, packed panels, batch-norm running statistics) is
// shared with the original, while the per-layer configuration (conv
// kernel choice, mask spec) and forward caches are the copy's own. Use
// it to try or serve a variant whose conv kernels or mask differ from
// the original's (autotuning, dynamic-plan mask calibration, NAS, the
// kernel bench) without copying the weights. Concurrent serving needs
// no copy at all: Infer is reentrant, so replicas share one module and
// each owns only its arena. Returns an error if the tree contains a
// module type that does not support shared cloning.
func CloneShared(m Module) (Module, error) {
	if s, ok := m.(*Sequential); ok {
		out := &Sequential{mods: make([]Module, len(s.mods))}
		for i, child := range s.mods {
			c, err := CloneShared(child)
			if err != nil {
				return nil, err
			}
			out.mods[i] = c
		}
		return out, nil
	}
	if sc, ok := m.(sharedCloner); ok {
		return sc.cloneShared(), nil
	}
	return nil, fmt.Errorf("nn: %T does not support shared cloning", m)
}
