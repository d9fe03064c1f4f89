package tensor

import "fmt"

// Winograd F(2×2, 3×3) convolution. A 3×3 stride-1 convolution is
// rewritten in a transformed domain where each 2×2 output tile costs 16
// multiplies instead of 36 — 2.25× fewer MACs than im2col+GEMM — at the
// price of cheap add-only transforms on the input and output:
//
//	Y = Aᵀ [ (G g Gᵀ) ⊙ (Bᵀ d B) ] A
//
// with the standard F(2,3) matrices (coefficients 0, ±1, ±½, so the
// weight transform is exact in binary floating point):
//
//	Bᵀ = ⎡1  0 −1  0⎤   G = ⎡ 1   0   0⎤   Aᵀ = ⎡1 1  1  0⎤
//	     ⎢0  1  1  0⎥       ⎢ ½   ½   ½⎥        ⎣0 1 −1 −1⎦
//	     ⎢0 −1  1  0⎥       ⎢ ½  −½   ½⎥
//	     ⎣0  1  0 −1⎦       ⎣ 0   0   1⎦
//
// The channel reduction stays a GEMM: for each of the 16 transformed-
// domain positions t, M[t] = U[t]·V[t] where U[t] is the outC×inC matrix
// of transformed weights at position t (packed once at load into the
// same 4-row panel layout as the im2col path) and V[t] is inC×nTiles of
// transformed input. The per-position GEMMs reuse Packed.MulPanelsInto,
// so the micro-kernel, its ILP and its zero-alloc properties carry over.
//
// The result is NOT bitwise-identical to the im2col+GEMM path — the
// transform reassociates the 9-term kernel sums — so serving a Winograd
// conv goes through the same held-out accuracy gate as int8 (drop ≤ ε).
// Numerically the F(2,3) transform is mild: coefficients are powers of
// two and the tile depth is 4, so observed error stays within a few ULP
// of the float32 reference (see TestWinogradParity).

// winoPos is the number of transformed-domain positions (4×4 tiles).
const winoPos = 16

// Winograd holds the transformed, panel-packed weights of one 3×3
// stride-1 convolution. Immutable after PackWinograd; shared by every
// caller of the owning layer and every variant cloned from it.
type Winograd struct {
	outC, inC int
	u         [winoPos]*Packed // U[t]: outC×inC, packed for MulPanelsInto
}

// PackWinograd transforms an OC×IC×3×3 weight tensor into the Winograd
// domain and packs each of the 16 per-position outC×inC matrices into
// panel layout. The transform itself is exact (coefficients are 0, ±1,
// ±½).
func PackWinograd(w *Tensor) *Winograd {
	if w.Rank() != 4 || w.shape[2] != 3 || w.shape[3] != 3 {
		panic(fmt.Sprintf("tensor: PackWinograd requires OC×IC×3×3 weights, got shape %v", w.shape))
	}
	oc, ic := w.shape[0], w.shape[1]
	mats := make([]*Tensor, winoPos)
	for t := range mats {
		mats[t] = New(oc, ic)
	}
	for o := 0; o < oc; o++ {
		for i := 0; i < ic; i++ {
			g := w.data[(o*ic+i)*9 : (o*ic+i)*9+9]
			// Gg (4×3): rows of G applied to the kernel's rows.
			var r [4][3]float32
			for c := 0; c < 3; c++ {
				g0, g1, g2 := g[c], g[3+c], g[6+c]
				r[0][c] = g0
				r[1][c] = 0.5 * (g0 + g1 + g2)
				r[2][c] = 0.5 * (g0 - g1 + g2)
				r[3][c] = g2
			}
			// (Gg)Gᵀ (4×4), scattered into the 16 per-position matrices.
			for rr := 0; rr < 4; rr++ {
				a0, a1, a2 := r[rr][0], r[rr][1], r[rr][2]
				mats[rr*4+0].data[o*ic+i] = a0
				mats[rr*4+1].data[o*ic+i] = 0.5 * (a0 + a1 + a2)
				mats[rr*4+2].data[o*ic+i] = 0.5 * (a0 - a1 + a2)
				mats[rr*4+3].data[o*ic+i] = a2
			}
		}
	}
	wg := &Winograd{outC: oc, inC: ic}
	for t := range wg.u {
		wg.u[t] = PackMatrix(mats[t])
	}
	return wg
}

// OutC returns the output channel count.
func (wg *Winograd) OutC() int { return wg.outC }

// InC returns the input channel count.
func (wg *Winograd) InC() int { return wg.inC }

// Panels returns the panel count of each per-position GEMM.
func (wg *Winograd) Panels() int { return wg.u[0].Panels() }

// Positions returns the number of transformed-domain positions (16),
// the parallel width of MulPositions.
func (wg *Winograd) Positions() int { return winoPos }

// Tiles returns the 2×2-output tile grid for an oh×ow output.
func (wg *Winograd) Tiles(oh, ow int) (tilesY, tilesX int) { return winoTiles(oh, ow) }

// winoTiles returns the 2×2-output tile grid for an oh×ow output.
func winoTiles(oh, ow int) (tilesY, tilesX int) {
	return (oh + 1) / 2, (ow + 1) / 2
}

// ScratchLen returns the float32 scratch length one image's Winograd
// convolution needs (the V and M transformed-domain buffers), for an
// output of oh×ow.
func (wg *Winograd) ScratchLen(oh, ow int) int {
	ty, tx := winoTiles(oh, ow)
	nT := ty * tx
	return winoPos * (wg.inC + wg.outC) * nT
}

// ConvInto computes one image's convolution: src is inC×h×w, dst is
// outC×oh×ow (fully overwritten), scratch has at least ScratchLen(oh,ow)
// float32s. padH/padW is the implicit zero padding; stride is 1 and the
// kernel 3×3 by construction. bias (per output channel) and relu are
// fused into the output transform.
func (wg *Winograd) ConvInto(dst, src []float32, h, w, padH, padW int, bias []float32, relu bool, scratch []float32) {
	oh := h + 2*padH - 2
	ow := w + 2*padW - 2
	ty, tx := winoTiles(oh, ow)
	nT := ty * tx
	v := scratch[:winoPos*wg.inC*nT]
	m := scratch[winoPos*wg.inC*nT : winoPos*(wg.inC+wg.outC)*nT]
	wg.TransformInput(v, src, h, w, padH, padW, 0, wg.inC)
	wg.MulPositions(m, v, nT, 0, winoPos)
	wg.TransformOutput(dst, m, oh, ow, bias, relu, 0, wg.outC)
}

// TransformInput computes V for input channels [ic0, ic1): each 4×4
// input tile d (anchored at output tile (ty,tx), read with implicit zero
// padding) becomes BᵀdB, scattered position-major so each per-position
// GEMM reads one contiguous inC×nTiles block:
//
//	v[t*inC*nT + ic*nT + tile] = (Bᵀ d B)[t/4][t%4]
func (wg *Winograd) TransformInput(v, src []float32, h, w, padH, padW, ic0, ic1 int) {
	oh := h + 2*padH - 2
	ow := w + 2*padW - 2
	tilesY, tilesX := winoTiles(oh, ow)
	nT := tilesY * tilesX
	icnT := wg.inC * nT
	for ic := ic0; ic < ic1; ic++ {
		plane := src[ic*h*w : (ic+1)*h*w]
		for ty := 0; ty < tilesY; ty++ {
			iy0 := ty*2 - padH
			for tx := 0; tx < tilesX; tx++ {
				ix0 := tx*2 - padW
				tile := ty*tilesX + tx
				// Gather the 4×4 input patch with zero padding. The fully
				// interior case skips every bounds test.
				var d [4][4]float32
				if iy0 >= 0 && iy0+4 <= h && ix0 >= 0 && ix0+4 <= w {
					for r := 0; r < 4; r++ {
						row := plane[(iy0+r)*w+ix0 : (iy0+r)*w+ix0+4]
						d[r][0], d[r][1], d[r][2], d[r][3] = row[0], row[1], row[2], row[3]
					}
				} else {
					for r := 0; r < 4; r++ {
						iy := iy0 + r
						if iy < 0 || iy >= h {
							continue // row stays zero
						}
						row := plane[iy*w:]
						for c := 0; c < 4; c++ {
							ix := ix0 + c
							if ix >= 0 && ix < w {
								d[r][c] = row[ix]
							}
						}
					}
				}
				// Bᵀd (columns), then (Bᵀd)B (rows).
				var t [4][4]float32
				for c := 0; c < 4; c++ {
					t[0][c] = d[0][c] - d[2][c]
					t[1][c] = d[1][c] + d[2][c]
					t[2][c] = d[2][c] - d[1][c]
					t[3][c] = d[1][c] - d[3][c]
				}
				base := ic*nT + tile
				for r := 0; r < 4; r++ {
					t0, t1, t2, t3 := t[r][0], t[r][1], t[r][2], t[r][3]
					v[(r*4+0)*icnT+base] = t0 - t2
					v[(r*4+1)*icnT+base] = t1 + t2
					v[(r*4+2)*icnT+base] = t2 - t1
					v[(r*4+3)*icnT+base] = t1 - t3
				}
			}
		}
	}
}

// MulPositions runs the per-position channel-reduction GEMMs for
// positions [t0, t1): M[t] = U[t]·V[t], with U[t] outC×inC (packed) and
// V[t] inC×nT. Positions are independent, so callers can spread them
// across the worker pool.
func (wg *Winograd) MulPositions(m, v []float32, nT, t0, t1 int) {
	icnT := wg.inC * nT
	ocnT := wg.outC * nT
	for t := t0; t < t1; t++ {
		wg.u[t].MulPanelsInto(m[t*ocnT:(t+1)*ocnT], v[t*icnT:(t+1)*icnT], nT, nil, false, 0, wg.u[t].Panels())
	}
}

// TransformOutput applies the inverse transform AᵀmA for output channels
// [oc0, oc1), fusing the bias add and optional ReLU, and scatters each
// 2×2 tile into dst (outC×oh×ow), clipping tiles that overhang an odd
// edge.
func (wg *Winograd) TransformOutput(dst, m []float32, oh, ow int, bias []float32, relu bool, oc0, oc1 int) {
	tilesY, tilesX := winoTiles(oh, ow)
	nT := tilesY * tilesX
	ocnT := wg.outC * nT
	for oc := oc0; oc < oc1; oc++ {
		out := dst[oc*oh*ow : (oc+1)*oh*ow]
		var b float32
		if bias != nil {
			b = bias[oc]
		}
		base := oc * nT
		for ty := 0; ty < tilesY; ty++ {
			oy := ty * 2
			for tx := 0; tx < tilesX; tx++ {
				tile := ty*tilesX + tx
				idx := base + tile
				// Gather the 4×4 transformed accumulator for this (oc, tile).
				var mm [4][4]float32
				for r := 0; r < 4; r++ {
					mm[r][0] = m[(r*4+0)*ocnT+idx]
					mm[r][1] = m[(r*4+1)*ocnT+idx]
					mm[r][2] = m[(r*4+2)*ocnT+idx]
					mm[r][3] = m[(r*4+3)*ocnT+idx]
				}
				// Aᵀm (2×4), then (Aᵀm)A (2×2).
				var s [2][4]float32
				for c := 0; c < 4; c++ {
					s[0][c] = mm[0][c] + mm[1][c] + mm[2][c]
					s[1][c] = mm[1][c] - mm[2][c] - mm[3][c]
				}
				y00 := s[0][0] + s[0][1] + s[0][2] + b
				y01 := s[0][1] - s[0][2] - s[0][3] + b
				y10 := s[1][0] + s[1][1] + s[1][2] + b
				y11 := s[1][1] - s[1][2] - s[1][3] + b
				if relu {
					if !(y00 > 0) {
						y00 = 0
					}
					if !(y01 > 0) {
						y01 = 0
					}
					if !(y10 > 0) {
						y10 = 0
					}
					if !(y11 > 0) {
						y11 = 0
					}
				}
				ox := tx * 2
				out[oy*ow+ox] = y00
				if ox+1 < ow {
					out[oy*ow+ox+1] = y01
				}
				if oy+1 < oh {
					out[(oy+1)*ow+ox] = y10
					if ox+1 < ow {
						out[(oy+1)*ow+ox+1] = y11
					}
				}
			}
		}
	}
}
