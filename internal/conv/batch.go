package conv

import (
	"fmt"

	"pbqpdnn/internal/gemm"
	"pbqpdnn/internal/tensor"
)

// This file holds RunInto, the one entry point through which the
// compiled program (internal/program) runs a conv instruction: it
// computes a whole N-image batch, batch 1 included, in one call,
// writing into a caller-provided destination batch. Batched
// implementations restructure the work so the minibatch buys
// kernel-level economy, not just repetition:
//
//   - im2row: all N images' patch rows stack into one tall Toeplitz
//     matrix feeding a single GEMM whose output rows ARE the HWC batch
//     slab (for 1×1/stride-1 convolutions the input batch slab IS the
//     patch matrix, so the whole layer is exactly one GEMM call);
//   - im2col: images lie side by side as column blocks of one wide
//     patch matrix, one GEMM, then a per-image writeback;
//   - wino2d: the kernel transform is one GEMM per call; the batch's
//     tiles then pass a chunk at a time through a gather, GEMMs for
//     the input transform, the pointwise stage (one tiles×C · C×M GEMM
//     per Winograd-domain point, so the transformed kernel is shared by
//     every tile of every image) and the output transform, and a
//     scatter.
//
// The per-image Run of these primitives is a one-image call of the
// same entry. Primitives without a batched implementation fall back to
// per-image Run, parallelized across images.

// checkBatch validates a RunInto call's geometry against the scenario
// and the primitive's layouts: the input may be in p.In or a layout
// the primitive's pack absorbs, and the residual operand (when the
// epilogue reads one) must align elementwise with dst.
func checkBatch(p *Primitive, dst, in *tensor.Batch, k *Kernel, s Scenario, epi gemm.Epilogue, res *tensor.Batch) {
	if in.Layout != p.In && !p.CanAbsorbInput(in.Layout) {
		panic(fmt.Sprintf("conv: %s cannot read input layout %s", p.Name, in.Layout))
	}
	if in.N != dst.N {
		panic(fmt.Sprintf("conv: batch size mismatch in=%d dst=%d", in.N, dst.N))
	}
	if dst.Layout != p.Out {
		panic(fmt.Sprintf("conv: %s produces %s, dst is %s", p.Name, p.Out, dst.Layout))
	}
	if err := s.Validate(); err != nil {
		panic(err)
	}
	if in.C != s.C || in.H != s.H || in.W != s.W {
		panic(fmt.Sprintf("conv: input %s does not match scenario %s", in, s))
	}
	if dst.C != s.M || dst.H != s.OutH() || dst.W != s.OutW() {
		panic(fmt.Sprintf("conv: dst %s does not match scenario %s", dst, s))
	}
	if k.M != s.M || k.C != s.C || k.K != s.K {
		panic(fmt.Sprintf("conv: kernel M=%d C=%d K=%d does not match scenario %s", k.M, k.C, k.K, s))
	}
	switch epi {
	case gemm.EpiAdd, gemm.EpiAddReLU:
		if res == nil || res.Layout != dst.Layout || len(res.Data) < len(dst.Data) {
			panic(fmt.Sprintf("conv: %s epilogue %v residual does not align with dst", p.Name, epi))
		}
	case gemm.EpiBias:
		panic("conv: bias epilogue is a kernel-level capability, not a batched-program one")
	}
}

// RunInto executes the primitive over the whole minibatch, writing
// image i's output into dst.Image(i), with the epilogue epi (reading
// residual res for the add forms) applied to the result. in is in
// p.In, or, for a primitive whose pack absorbs it, the other plain
// layout (CanAbsorbInput). A primitive with a fused entry applies epi
// in its output write; every other one runs its batched entry, or
// per-image Run (in parallel across images when threads allow) copied
// into its destination slab, followed by an epilogue post-pass. Either
// way the result is bitwise what the plain convolution followed by the
// separate elementwise pass computes: fusion only moves work.
func RunInto(p *Primitive, dst, in *tensor.Batch, k *Kernel, s Scenario, threads int, epi gemm.Epilogue, res *tensor.Batch) {
	checkBatch(p, dst, in, k, s, epi, res)
	switch {
	case p.RunBatchFused != nil:
		p.RunBatchFused(dst, in, k, s, threads, epi, res)
		return
	case p.RunBatch != nil:
		p.RunBatch(dst, in, k, s, threads)
	case in.N == 1:
		copy(dst.Slab(0), p.Run(in.Image(0), k, s, threads).Data)
	default:
		parallelFor(threads, in.N, func(i int) {
			copy(dst.Slab(i), p.Run(in.Image(i), k, s, 1).Data)
		})
	}
	applyEpilogueBatch(dst, epi, res, threads)
}

// oneImage is the per-image Run of a primitive with a batched entry:
// RunInto with a batch of one, so both paths share one implementation.
func (p *Primitive) oneImage(in *tensor.Tensor, k *Kernel, s Scenario, threads int) *tensor.Tensor {
	checkLayout(in, p.In, p.Name)
	out := tensor.New(p.Out, s.M, s.OutH(), s.OutW())
	RunInto(p, tensor.NewBatchWith(p.Out, 1, out.C, out.H, out.W, out.Data),
		tensor.NewBatchWith(p.In, 1, in.C, in.H, in.W, in.Data), k, s, threads, gemm.EpiNone, nil)
	return out
}

// gemmKernel runs one C = A·B multiply with the plan-selected kernel
// variant (bt, when non-nil, is B pre-transposed for the abt variant).
// Every variant is deterministic run to run; the scalar variants agree
// bitwise with each other, while the packed kernel's k-unrolled product
// grouping rounds slightly differently (within the library's 1e-4
// equivalence tolerance).
func gemmKernel(kind gemmKind, m, n, k int, a, b, bt, c []float32) {
	switch kind {
	case gemmNaive:
		gemm.Naive(m, n, k, a, b, c)
	case gemmBlocked:
		gemm.Blocked(m, n, k, 0, a, b, c)
	case gemmTransB:
		gemm.TransB(m, n, k, a, bt, c)
	case gemmPacked:
		gemm.Packed(m, n, k, a, b, c)
	default:
		gemm.IKJ(m, n, k, a, b, c)
	}
}

// gemmRows runs C = A·B splitting A's rows across the thread budget,
// each worker applying the plan-selected kernel variant to its
// contiguous row slab — the batched split preserves what the PBQP
// cost model priced, unlike collapsing every variant to one parallel
// kernel.
func gemmRows(kind gemmKind, threads, m, n, k int, a, b, bt, c []float32) {
	if threads > m {
		threads = m
	}
	if threads <= 1 {
		gemmKernel(kind, m, n, k, a, b, bt, c)
		return
	}
	rows := (m + threads - 1) / threads
	var slabs [][2]int
	for lo := 0; lo < m; lo += rows {
		hi := lo + rows
		if hi > m {
			hi = m
		}
		slabs = append(slabs, [2]int{lo, hi})
	}
	parallelFor(threads, len(slabs), func(i int) {
		lo, hi := slabs[i][0], slabs[i][1]
		gemmKernel(kind, hi-lo, n, k, a[lo*k:], b, bt, c[lo*n:])
	})
}

// im2rowBatchFused builds the batched im2row entry: one tall patch
// matrix (N·Ho·Wo)×(C·K²) — the input batch slab itself for
// 1×1/stride-1 HWC input — and one GEMM writing directly into the HWC
// output batch slab, with the epilogue applied inside the GEMM's
// output write. CHW input is absorbed by the pack: the patch builder
// gathers from the CHW slab directly, replacing the standalone
// conversion instruction.
func im2rowBatchFused(kind gemmKind) func(dst, in *tensor.Batch, k *Kernel, s Scenario, threads int, epi gemm.Epilogue, res *tensor.Batch) {
	return func(dst, in *tensor.Batch, k *Kernel, s Scenario, threads int, epi gemm.Epilogue, res *tensor.Batch) {
		oh, ow := s.OutH(), s.OutW()
		rowsPerImage := oh * ow
		m, n, kk := in.N*rowsPerImage, s.M, s.K*s.K*s.C
		fromCHW := in.Layout == tensor.CHW
		var patches []float32
		if !fromCHW && s.K == 1 && s.Stride == 1 && s.Pad == 0 {
			// A 1×1 window at stride 1 makes every HWC pixel row its own
			// patch row: the batch slab is already the Toeplitz matrix.
			patches = in.Data[:m*kk]
		} else {
			patches = make([]float32, m*kk)
			parallelFor(threads, in.N, func(img int) {
				seg := patches[img*rowsPerImage*kk : (img+1)*rowsPerImage*kk]
				if fromCHW {
					im2rowPatchesFromCHWInto(seg, in.Image(img), s)
				} else {
					im2rowPatchesInto(seg, in.Image(img), s)
				}
			})
		}
		b := kernelMatrixKKC(k) // packed once per batch, not per image
		var bt []float32
		if kind == gemmTransB {
			bt = transposeMat(kk, n, b)
		}
		// The HWC output slab rows ARE the GEMM result rows, so the
		// residual batch aligns elementwise with C.
		var r []float32
		if res != nil {
			r = res.Data[:m*n]
		}
		// The patch-row dimension m = N·Ho·Wo is the tall axis, so the
		// thread split is always by rows, with the selected variant run
		// on each slab.
		gemmRowsEpi(kind, threads, m, n, kk, patches, b, bt, dst.Data[:m*n], epi, r)
	}
}

// im2colBatchFused builds the batched im2col entry: images side by
// side as column blocks of one (C·K²)×(N·Ho·Wo) patch matrix, one
// GEMM, and a slab writeback de-interleaving the M×(N·Ho·Wo) result
// into per-image CHW planes. HWC input is absorbed by the pack. The
// epilogue rides the GEMM output write when the result lands in dst
// directly (N == 1); for N > 1 the interleaved flat result cannot
// align with per-image residual slabs, so the epilogue fuses into the
// de-interleaving writeback instead — still exactly one walk over dst.
func im2colBatchFused(kind gemmKind) func(dst, in *tensor.Batch, k *Kernel, s Scenario, threads int, epi gemm.Epilogue, res *tensor.Batch) {
	return func(dst, in *tensor.Batch, k *Kernel, s Scenario, threads int, epi gemm.Epilogue, res *tensor.Batch) {
		oh, ow := s.OutH(), s.OutW()
		colsPerImage := oh * ow
		m, n, kk := s.M, in.N*colsPerImage, s.C*s.K*s.K
		fromHWC := in.Layout == tensor.HWC
		patches := make([]float32, kk*n)
		parallelFor(threads, in.N, func(img int) {
			if fromHWC {
				im2colPatchesFromHWCIntoCols(patches, n, img*colsPerImage, in.Image(img), s)
			} else {
				im2colPatchesIntoCols(patches, n, img*colsPerImage, in.Image(img), s)
			}
		})
		a := kernelMatrixMCK(k)
		// The M×(N·Ho·Wo) result interleaves images within each filter
		// row, so N > 1 needs a de-interleaving writeback; a single-image
		// chunk is exactly the CHW output slab and GEMMs straight into it.
		flat := dst.Slab(0)
		gemmEpi := epi
		var r []float32
		if in.N > 1 {
			flat = make([]float32, m*n)
			gemmEpi = gemm.EpiNone // epilogue fuses into the writeback below
		} else if res != nil {
			r = res.Slab(0)
		}
		if threads > 1 && m < threads {
			// Too few filter rows to feed the pool: split the batch-wide
			// column axis instead. ParallelCols runs the packed kernel on
			// per-goroutine column stripes, so this (rare) shape collapses
			// the kernel variant to packed; row counts M ≥ threads — every
			// real model here — keep the selected one.
			gemm.ParallelColsEpi(threads, m, n, kk, a, patches, flat, gemmEpi, r, nil)
		} else {
			var pt []float32
			if kind == gemmTransB {
				pt = transposeMat(kk, n, patches)
			}
			gemmRowsEpi(kind, threads, m, n, kk, a, patches, pt, flat, gemmEpi, r)
		}
		if in.N == 1 {
			return
		}
		parallelFor(threads, in.N, func(img int) {
			slab := dst.Slab(img)
			var rs []float32
			if res != nil {
				rs = res.Slab(img)
			}
			for mm := 0; mm < m; mm++ {
				dstRow := slab[mm*colsPerImage : (mm+1)*colsPerImage]
				srcRow := flat[mm*n+img*colsPerImage : mm*n+(img+1)*colsPerImage]
				var rrow []float32
				if rs != nil {
					rrow = rs[mm*colsPerImage : (mm+1)*colsPerImage]
				}
				epiWritebackRow(epi, dstRow, srcRow, rrow)
			}
		})
	}
}

// winoChunkTiles caps the tiles one worker pushes through the pipeline
// at a time, so its panels (at most 2·t²·64·max(C, M) floats) are
// sized by the layer's channels, not by the batch.
const winoChunkTiles = 64

// wino2DBatch builds the 2D Winograd entry for F(m×m, r×r). Every
// arithmetic stage is a packed-GEMM call. The batch's
// T = N·tilesY·tilesX tiles (image-major) are cut into chunks of n
// tiles, and each worker takes whole chunks through five stages on
// panels with one column block per tile holding its C input or M
// output channels:
//
//	gather     D[t² × n·C]: row a·t+b holds pixel (a,b) of each tile
//	GEMM       V[t² × n·C] = (Bᵀ⊗Bᵀ) · D
//	GEMM       Y_i[n × M] = V_i[n × C] · U_i[C × M], one per point i
//	GEMM       O[m² × n·M] = (Aᵀ⊗Aᵀ) · Y
//	scatter    O's column blocks into each image's output tiles
//
// after the kernel transform U[t² × C·M] = (G⊗G) · gᵀ, computed once
// per call, where g holds the flattened r×r filters as rows in
// channel-major order. The Kronecker operators cost t⁴ multiply-adds
// per tile-channel where the separable sandwich Bᵀ·d·B costs 2t³, but
// they run at GEMM speed and need no per-tile temporaries. Channels
// innermost make an HWC gather or scatter a run of contiguous copies
// and put the output channels on the pointwise GEMM's wide axis. The
// VF4/VF8 variants share this one implementation: the GEMM subsumes
// lane blocking, so the vector factor only differentiates the cost
// model's pricing.
func wino2DBatch(m, r int, layout tensor.Layout) func(dst, in *tensor.Batch, k *Kernel, s Scenario, threads int) {
	w := winoTiles[[2]int{m, r}]
	gather, scatter := winoGatherCHW, winoScatterCHW
	if layout == tensor.HWC {
		gather, scatter = winoGatherHWC, winoScatterHWC
	}
	return func(dst, in *tensor.Batch, kern *Kernel, s Scenario, threads int) {
		if s.Stride != 1 || s.K != r {
			panic(fmt.Sprintf("wino2d F(%d,%d): unsupported scenario %s", m, r, s))
		}
		t, rr := w.plan.T, r*r
		tt := t * t
		oh, ow := s.OutH(), s.OutW()
		g := winoGeom{m: m, t: t, pad: s.Pad, c: s.C, h: s.H, w: s.W,
			outC: s.M, oh: oh, ow: ow, tilesY: (oh + m - 1) / m, tilesX: (ow + m - 1) / m,
			inStride: in.Stride, outStride: dst.Stride}
		M, C, T := s.M, s.C, in.N*g.tilesY*g.tilesX

		// Chunks come in rounds of one per worker, so every worker gets
		// work even when the batch has few tiles.
		workers := max(1, min(threads, T))
		chunks := max(workers, (T+winoChunkTiles-1)/winoChunkTiles)
		chunks = (chunks + workers - 1) / workers * workers
		nt := (T + chunks - 1) / chunks

		// One allocation: the channel-major filters, U, and per worker a
		// region holding D and later Y, then one holding V and later O
		// (each reuse starts once its predecessor has been consumed).
		dyLen := tt * nt * max(C, M)
		per := dyLen + nt*max(tt*C, m*m*M)
		buf := make([]float32, C*M*rr+tt*C*M+workers*per)
		gc, u := buf[:C*M*rr], buf[C*M*rr:][:tt*C*M]
		for c := 0; c < C; c++ {
			for mm := 0; mm < M; mm++ {
				copy(gc[(c*M+mm)*rr:][:rr], kern.Data[(mm*C+c)*rr:][:rr])
			}
		}
		gemmRows(gemmTransB, threads, tt, C*M, rr, w.kg, nil, gc, u)

		parallelFor(workers, workers, func(wk int) {
			ws := buf[C*M*rr+tt*C*M+wk*per:][:per]
			for t0 := wk * nt; t0 < T; t0 += workers * nt {
				n := min(nt, T-t0)
				d, y := ws[:tt*n*C], ws[:tt*n*M]
				v, o := ws[dyLen:][:tt*n*C], ws[dyLen:][:m*m*n*M]
				gather(d, in.Data, &g, t0, n)
				gemm.Packed(tt, n*C, tt, w.kb, d, v)
				for i := 0; i < tt; i++ {
					gemm.Packed(n, M, C, v[i*n*C:][:n*C], u[i*C*M:][:C*M], y[i*n*M:][:n*M])
				}
				gemm.Packed(m*m, n*M, tt, w.ka, y, o)
				scatter(dst.Data, o, &g, t0, n)
			}
		})
	}
}

// winoGeom is one wino2d call's tiling: m×m output tiles over t×t
// input tiles, tilesY×tilesX per image, on batch slabs of inStride
// input and outStride output elements per image.
type winoGeom struct {
	m, t, pad           int
	c, h, w             int // input channels and extent
	outC, oh, ow        int // output channels and extent
	tilesY, tilesX      int
	inStride, outStride int
}

// The gathers and scatters move the n tiles t0, t0+1, … of a chunk,
// numbered image-major across the batch, between the image slabs and a
// chunk panel whose row p holds pixel p of every tile, tile k's
// channels in the contiguous block [k·C, (k+1)·C).

// winoGatherCHW fills the D panel from CHW images:
// D[a·t+b][k·C + c] = src(c, y0+a−pad, x0+b−pad) for tile k at output
// origin (y0, x0), zero outside the image. The leaf reads one pixel's
// channels at stride H·W; its second loop bound is implied by the
// first and only lets the compiler drop the bounds check.
//
//dnn:hotpath
func winoGatherCHW(d, src []float32, g *winoGeom, t0, n int) {
	m, t, c, h, w, tilesX := g.m, g.t, g.c, g.h, g.w, g.tilesX
	tiles, plane := g.tilesY*tilesX, uint(h*w)
	for k := 0; k < n; k++ {
		img, tile := (t0+k)/tiles, (t0+k)%tiles
		y0, x0 := tile/tilesX*m-g.pad, tile%tilesX*m-g.pad
		im := src[img*g.inStride:][:g.inStride]
		for a := 0; a < t; a++ {
			ih := y0 + a
			for b := 0; b < t; b++ {
				blk := d[((a*t+b)*n+k)*c:][:c]
				iw := x0 + b
				if ih < 0 || ih >= h || iw < 0 || iw >= w {
					clear(blk)
					continue
				}
				px := im[ih*w+iw:]
				for ch, i := 0, uint(0); ch < len(blk) && i < uint(len(px)); ch, i = ch+1, i+plane {
					blk[ch] = px[i]
				}
			}
		}
	}
}

// winoGatherHWC is winoGatherCHW for HWC images, where each pixel's
// channel block is one contiguous copy.
//
//dnn:hotpath
func winoGatherHWC(d, src []float32, g *winoGeom, t0, n int) {
	m, t, c, h, w, tilesX := g.m, g.t, g.c, g.h, g.w, g.tilesX
	tiles := g.tilesY * tilesX
	for k := 0; k < n; k++ {
		img, tile := (t0+k)/tiles, (t0+k)%tiles
		y0, x0 := tile/tilesX*m-g.pad, tile%tilesX*m-g.pad
		im := src[img*g.inStride:][:g.inStride]
		for a := 0; a < t; a++ {
			ih := y0 + a
			for b := 0; b < t; b++ {
				blk := d[((a*t+b)*n+k)*c:][:c]
				if iw := x0 + b; ih < 0 || ih >= h || iw < 0 || iw >= w {
					clear(blk)
				} else {
					copy(blk, im[(ih*w+iw)*c:][:c])
				}
			}
		}
	}
}

// winoScatterCHW writes the O panel into CHW images:
// dst(mm, y0+i, x0+j) = O[i·m+j][k·M + mm] for tile k at output origin
// (y0, x0), dropping tile outputs past the image edge. The leaf
// spreads one pixel's channels over the output planes at stride OH·OW.
//
//dnn:hotpath
func winoScatterCHW(dst, o []float32, g *winoGeom, t0, n int) {
	m, outC, oh, ow, tilesX := g.m, g.outC, g.oh, g.ow, g.tilesX
	tiles, plane := g.tilesY*tilesX, uint(oh*ow)
	for k := 0; k < n; k++ {
		img, tile := (t0+k)/tiles, (t0+k)%tiles
		y0, x0 := tile/tilesX*m, tile%tilesX*m
		out := dst[img*g.outStride:][:g.outStride]
		for i := 0; i < m && y0+i < oh; i++ {
			for j := 0; j < m && x0+j < ow; j++ {
				blk := o[((i*m+j)*n+k)*outC:][:outC]
				px := out[(y0+i)*ow+x0+j:]
				for mm, p := 0, uint(0); mm < len(blk) && p < uint(len(px)); mm, p = mm+1, p+plane {
					px[p] = blk[mm]
				}
			}
		}
	}
}

// winoScatterHWC is winoScatterCHW for HWC images, where each output
// pixel's channels are one contiguous copy.
//
//dnn:hotpath
func winoScatterHWC(dst, o []float32, g *winoGeom, t0, n int) {
	m, outC, oh, ow, tilesX := g.m, g.outC, g.oh, g.ow, g.tilesX
	tiles := g.tilesY * tilesX
	for k := 0; k < n; k++ {
		img, tile := (t0+k)/tiles, (t0+k)%tiles
		y0, x0 := tile/tilesX*m, tile%tilesX*m
		out := dst[img*g.outStride:][:g.outStride]
		for i := 0; i < m && y0+i < oh; i++ {
			for j := 0; j < m && x0+j < ow; j++ {
				copy(out[((y0+i)*ow+x0+j)*outC:][:outC], o[((i*m+j)*n+k)*outC:][:outC])
			}
		}
	}
}
