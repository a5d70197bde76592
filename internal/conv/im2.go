package conv

import (
	"pbqpdnn/internal/gemm"
	"pbqpdnn/internal/tensor"
)

// The im2 family (paper §4): restructure the input image into a Toeplitz
// matrix (im2col: patches as columns; im2row: patches as rows) and
// perform the whole convolution as one GEMM call. Fast and
// stride-capable, but the patch matrix is K² times the input — the
// family's "large image" weakness in Table 1.

// im2colPatches builds the (C·K²)×(Ho·Wo) patch matrix from CHW input.
func im2colPatches(in *tensor.Tensor, s Scenario) []float32 {
	cols := s.OutH() * s.OutW()
	p := make([]float32, s.C*s.K*s.K*cols)
	im2colPatchesIntoCols(p, cols, 0, in, s)
	return p
}

// im2colPatchesIntoCols writes one image's patch columns into the
// column block starting at colOff of a (C·K²)×totalCols matrix. The
// zero-filled destination is assumed (the builder only writes in-range
// taps); batched im2col lays images side by side as column blocks.
// Source and destination rows are taken as x[off:][:w] views so the
// inner tap loop indexes two slices whose lengths the range guard
// already bounds, and carries no bounds checks.
//
//dnn:hotpath
func im2colPatchesIntoCols(p []float32, totalCols, colOff int, in *tensor.Tensor, s Scenario) {
	oh, ow := s.OutH(), s.OutW()
	sW, stride, pad := s.W, s.Stride, s.Pad
	data := in.Data
	for c := 0; c < s.C; c++ {
		for kh := 0; kh < s.K; kh++ {
			for kw := 0; kw < s.K; kw++ {
				r := (c*s.K+kh)*s.K + kw
				dst := p[r*totalCols+colOff:][:oh*ow]
				for y := 0; y < oh; y++ {
					ih := y*stride - pad + kh
					if ih < 0 || ih >= s.H {
						continue // whole row out of range: stays zero
					}
					drow := dst[y*ow:][:ow]
					srcRow := data[(c*s.H+ih)*sW:][:sW]
					for x := range drow {
						iw := x*stride - pad + kw
						if iw >= 0 && iw < sW {
							drow[x] = srcRow[iw]
						}
					}
				}
			}
		}
	}
}

// im2rowPatches builds the (Ho·Wo)×(C·K²) patch matrix from HWC input,
// with the channel dimension innermost to match the layout.
func im2rowPatches(in *tensor.Tensor, s Scenario) []float32 {
	p := make([]float32, s.OutH()*s.OutW()*s.K*s.K*s.C)
	im2rowPatchesInto(p, in, s)
	return p
}

// im2rowPatchesInto writes the (Ho·Wo)×(C·K²) patch matrix into p,
// which must be zero-filled and exactly sized. Batched im2row stacks
// one image's row block after another in a tall patch matrix. Each
// in-range tap is one channel-vector copy from a hoisted source row
// view; the out-of-range branch hoists past whole kernel rows at once.
//
//dnn:hotpath
func im2rowPatchesInto(p []float32, in *tensor.Tensor, s Scenario) {
	oh, ow := s.OutH(), s.OutW()
	cC := s.C
	cols := s.K * s.K * cC
	data := in.Data
	for y := 0; y < oh; y++ {
		for x := 0; x < ow; x++ {
			dst := p[(y*ow+x)*cols:][:cols]
			i := 0
			for kh := 0; kh < s.K; kh++ {
				ih := y*s.Stride - s.Pad + kh
				if ih < 0 || ih >= s.H {
					i += s.K * cC // whole kernel row out of range: stays zero
					continue
				}
				srcRow := data[ih*s.W*cC:][:s.W*cC]
				for kw := 0; kw < s.K; kw++ {
					iw := x*s.Stride - s.Pad + kw
					if iw >= 0 && iw < s.W {
						copy(dst[i:i+cC], srcRow[iw*cC:][:cC])
					}
					i += cC
				}
			}
		}
	}
}

// kernelMatrixMCK reshapes the kernel to M×(C·K²) rows (matches im2col
// patch rows).
func kernelMatrixMCK(k *Kernel) []float32 { return k.Data } // MCKK is already M×(C·K²) row-major

// kernelMatrixKKC builds the (K·K·C)×M matrix whose row order matches
// im2row patch columns (kh, kw, c) with output channels across.
func kernelMatrixKKC(k *Kernel) []float32 {
	rows := k.K * k.K * k.C
	out := make([]float32, rows*k.M)
	for m := 0; m < k.M; m++ {
		for c := 0; c < k.C; c++ {
			for kh := 0; kh < k.K; kh++ {
				for kw := 0; kw < k.K; kw++ {
					r := (kh*k.K+kw)*k.C + c
					out[r*k.M+m] = k.At(m, c, kh, kw)
				}
			}
		}
	}
	return out
}

type gemmKind uint8

const (
	gemmIKJ gemmKind = iota
	gemmBlocked
	gemmTransB
	gemmNaive
	gemmPacked
)

// im2colHWCOut is im2col with a fused transposing writeback producing
// HWC output from the CHW-natural GEMM result.
func im2colHWCOut(in *tensor.Tensor, k *Kernel, s Scenario, threads int) *tensor.Tensor {
	checkLayout(in, tensor.CHW, "im2col-hwcout")
	checkScenario(in, k, s)
	oh, ow := s.OutH(), s.OutW()
	patches := im2colPatches(in, s)
	m, n, kk := s.M, oh*ow, s.C*s.K*s.K
	flat := make([]float32, m*n)
	if threads > 1 {
		gemm.Parallel(threads, m, n, kk, kernelMatrixMCK(k), patches, flat)
	} else {
		gemm.IKJ(m, n, kk, kernelMatrixMCK(k), patches, flat)
	}
	out := tensor.New(tensor.HWC, s.M, oh, ow)
	for mm := 0; mm < m; mm++ {
		for p := 0; p < n; p++ {
			out.Data[p*s.M+mm] = flat[mm*n+p]
		}
	}
	return out
}

// im2colBlockedIn consumes CHW4 input (unpacking blocks while building
// patches) and emits CHW4 output — the vendor-layout im2 variant.
func im2colBlockedIn(in *tensor.Tensor, k *Kernel, s Scenario, threads int) *tensor.Tensor {
	checkLayout(in, tensor.CHW4, "im2col-chw4")
	checkScenario(in, k, s)
	oh, ow := s.OutH(), s.OutW()
	cols := oh * ow
	rows := s.C * s.K * s.K
	patches := make([]float32, rows*cols)
	for c := 0; c < s.C; c++ {
		for kh := 0; kh < s.K; kh++ {
			for kw := 0; kw < s.K; kw++ {
				r := (c*s.K+kh)*s.K + kw
				dst := patches[r*cols : r*cols+cols]
				i := 0
				for y := 0; y < oh; y++ {
					ih := y*s.Stride - s.Pad + kh
					for x := 0; x < ow; x++ {
						iw := x*s.Stride - s.Pad + kw
						if ih >= 0 && ih < s.H && iw >= 0 && iw < s.W {
							dst[i] = in.At(c, ih, iw)
						}
						i++
					}
				}
			}
		}
	}
	m, n, kk := s.M, cols, rows
	flat := make([]float32, m*n)
	if threads > 1 {
		gemm.Parallel(threads, m, n, kk, kernelMatrixMCK(k), patches, flat)
	} else {
		gemm.Blocked(m, n, kk, 0, kernelMatrixMCK(k), patches, flat)
	}
	out := tensor.New(tensor.CHW4, s.M, oh, ow)
	for mm := 0; mm < m; mm++ {
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				out.Set(mm, y, x, flat[(mm*oh+y)*ow+x])
			}
		}
	}
	return out
}

// im2rowCHWOut is im2row with a transposing writeback producing CHW
// output from the HWC-natural GEMM result.
func im2rowCHWOut(in *tensor.Tensor, k *Kernel, s Scenario, threads int) *tensor.Tensor {
	checkLayout(in, tensor.HWC, "im2row-chwout")
	checkScenario(in, k, s)
	oh, ow := s.OutH(), s.OutW()
	patches := im2rowPatches(in, s)
	m, n, kk := oh*ow, s.M, s.K*s.K*s.C
	flat := make([]float32, m*n)
	if threads > 1 {
		gemm.Parallel(threads, m, n, kk, patches, kernelMatrixKKC(k), flat)
	} else {
		gemm.IKJ(m, n, kk, patches, kernelMatrixKKC(k), flat)
	}
	out := tensor.New(tensor.CHW, s.M, oh, ow)
	for p := 0; p < m; p++ {
		for mm := 0; mm < n; mm++ {
			out.Data[mm*m+p] = flat[p*n+mm]
		}
	}
	return out
}

func transposeMat(rows, cols int, a []float32) []float32 {
	t := make([]float32, len(a))
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			t[j*rows+i] = a[i*cols+j]
		}
	}
	return t
}

// im2Workspace models the Toeplitz matrix footprint.
func im2Workspace(s Scenario) int64 {
	return int64(s.C) * int64(s.K) * int64(s.K) * int64(s.OutH()) * int64(s.OutW()) * 4
}

// im2Primitives assembles the im2 family entries. Names follow the
// paper's Figure 4 labels: "A B I K" multiplies kernel panel A by patch
// panel B; the "BT" variants hand the second panel to GEMM transposed.
func im2Primitives() []*Primitive {
	ws := im2Workspace
	im2colP := func(kind gemmKind, p *Primitive) *Primitive {
		p.Run, p.RunBatchFused = p.oneImage, im2colBatchFused(kind)
		return p
	}
	im2rowP := func(kind gemmKind, p *Primitive) *Primitive {
		p.Run, p.RunBatchFused = p.oneImage, im2rowBatchFused(kind)
		return p
	}
	return []*Primitive{
		im2colP(gemmIKJ, &Primitive{Name: "im2col-ab", Family: FamilyIm2, In: tensor.CHW, Out: tensor.CHW, VF: 4, Strided: true, Workspace: ws}),
		im2colP(gemmTransB, &Primitive{Name: "im2col-abt", Family: FamilyIm2, In: tensor.CHW, Out: tensor.CHW, VF: 4, Strided: true, Workspace: ws}),
		im2colP(gemmBlocked, &Primitive{Name: "im2col-blk", Family: FamilyIm2, In: tensor.CHW, Out: tensor.CHW, VF: 8, Strided: true, Workspace: ws}),
		im2colP(gemmPacked, &Primitive{Name: "im2col-pack", Family: FamilyIm2, In: tensor.CHW, Out: tensor.CHW, VF: 8, Strided: true, Workspace: ws}),
		im2colP(gemmNaive, &Primitive{Name: "im2col-naive", Family: FamilyIm2, In: tensor.CHW, Out: tensor.CHW, VF: 1, Strided: true, Workspace: ws}),
		im2rowP(gemmIKJ, &Primitive{Name: "im2row-ab", Family: FamilyIm2, In: tensor.HWC, Out: tensor.HWC, VF: 4, Strided: true, Workspace: ws}),
		im2rowP(gemmTransB, &Primitive{Name: "im2row-abt", Family: FamilyIm2, In: tensor.HWC, Out: tensor.HWC, VF: 4, Strided: true, Workspace: ws}),
		im2rowP(gemmBlocked, &Primitive{Name: "im2row-blk", Family: FamilyIm2, In: tensor.HWC, Out: tensor.HWC, VF: 8, Strided: true, Workspace: ws}),
		im2rowP(gemmPacked, &Primitive{Name: "im2row-pack", Family: FamilyIm2, In: tensor.HWC, Out: tensor.HWC, VF: 8, Strided: true, Workspace: ws}),
		im2rowP(gemmNaive, &Primitive{Name: "im2row-naive", Family: FamilyIm2, In: tensor.HWC, Out: tensor.HWC, VF: 1, Strided: true, Workspace: ws}),
		{Name: "im2col-hwcout", Family: FamilyIm2, In: tensor.CHW, Out: tensor.HWC, VF: 4, Strided: true, Workspace: ws, Run: im2colHWCOut},
		{Name: "im2row-chwout", Family: FamilyIm2, In: tensor.HWC, Out: tensor.CHW, VF: 4, Strided: true, Workspace: ws, Run: im2rowCHWOut},
		{Name: "im2col-chw4", Family: FamilyIm2, In: tensor.CHW4, Out: tensor.CHW4, VF: 4, Strided: true, MinC: 4, Workspace: ws, Run: im2colBlockedIn},
	}
}
