package conv

import (
	"testing"

	"pbqpdnn/internal/gemm"
	"pbqpdnn/internal/tensor"
)

// otherIm2Layout maps an im2 primitive's native input layout to the
// one its pack absorbs.
func otherIm2Layout(l tensor.Layout) tensor.Layout {
	if l == tensor.CHW {
		return tensor.HWC
	}
	return tensor.CHW
}

// TestFusedEpilogueMatchesPostPass: for every batched primitive,
// RunInto with an epilogue must be bitwise identical to the plain run
// followed by the separate elementwise pass — fusion moves work into
// the output write, it never changes arithmetic.
func TestFusedEpilogueMatchesPostPass(t *testing.T) {
	for _, p := range Library() {
		if !p.Batched() {
			continue
		}
		for _, s := range batchScenarios() {
			if !p.Supports(s) {
				continue
			}
			for _, n := range []int{1, 3} {
				in := makeInputBatch(p.In, n, s)
				k := NewKernel(s.M, s.C, s.K)
				k.FillRandom(3)
				res := tensor.NewBatch(p.Out, n, s.M, s.OutH(), s.OutW())
				for i := 0; i < n; i++ {
					res.Image(i).FillRandom(int64(31 * (i + 1)))
				}
				want := tensor.NewBatch(p.Out, n, s.M, s.OutH(), s.OutW())
				got := tensor.NewBatch(p.Out, n, s.M, s.OutH(), s.OutW())
				for _, epi := range []gemm.Epilogue{gemm.EpiReLU, gemm.EpiAdd, gemm.EpiAddReLU} {
					for _, threads := range []int{1, 3} {
						RunInto(p, want, in, k, s, threads, gemm.EpiNone, nil)
						applyEpilogueBatch(want, epi, res, threads)
						RunInto(p, got, in, k, s, threads, epi, res)
						for i := range got.Data {
							if got.Data[i] != want.Data[i] {
								t.Fatalf("%s %s n=%d threads=%d epi=%v: data[%d]=%v want %v (not bitwise)",
									p.Name, s, n, threads, epi, i, got.Data[i], want.Data[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestFusedInputConversionMatchesConvertThenRun: an im2 primitive fed
// the absorbable other layout must produce bitwise what convert-then-
// run produces — the layout-general packer builds the identical patch
// matrix, so the GEMM sees the same operands.
func TestFusedInputConversionMatchesConvertThenRun(t *testing.T) {
	tested := 0
	for _, p := range Library() {
		if p.RunBatchFused == nil {
			continue
		}
		from := otherIm2Layout(p.In)
		if !p.CanAbsorbInput(from) {
			t.Errorf("%s: fused im2 primitive should absorb %s input", p.Name, from)
			continue
		}
		tested++
		for _, s := range batchScenarios() {
			if !p.Supports(s) {
				continue
			}
			for _, n := range []int{1, 3} {
				raw := makeInputBatch(from, n, s)
				conv := tensor.NewBatch(p.In, n, s.C, s.H, s.W)
				for i := 0; i < n; i++ {
					tensor.ConvertInto(conv.Image(i), raw.Image(i))
				}
				k := NewKernel(s.M, s.C, s.K)
				k.FillRandom(5)
				res := tensor.NewBatch(p.Out, n, s.M, s.OutH(), s.OutW())
				for i := 0; i < n; i++ {
					res.Image(i).FillRandom(int64(17 * (i + 1)))
				}
				want := tensor.NewBatch(p.Out, n, s.M, s.OutH(), s.OutW())
				got := tensor.NewBatch(p.Out, n, s.M, s.OutH(), s.OutW())
				for _, epi := range []gemm.Epilogue{gemm.EpiNone, gemm.EpiAddReLU} {
					for _, threads := range []int{1, 3} {
						RunInto(p, want, conv, k, s, threads, epi, res)
						RunInto(p, got, raw, k, s, threads, epi, res)
						for i := range got.Data {
							if got.Data[i] != want.Data[i] {
								t.Fatalf("%s %s n=%d threads=%d epi=%v: absorbed conversion diverges at %d",
									p.Name, s, n, threads, epi, i)
							}
						}
					}
				}
			}
		}
	}
	if tested == 0 {
		t.Fatal("no fused im2 primitives exercised")
	}
}

// TestFusedFallbackCoversNonFusedPrimitives: primitives without a
// native fused entry (wino2d, direct, kn2, fft …) still honor the
// fused contract via the post-pass fallback.
func TestFusedFallbackCoversNonFusedPrimitives(t *testing.T) {
	s := Scenario{C: 4, H: 8, W: 8, Stride: 1, K: 3, M: 5, Pad: 1}
	tested := 0
	for _, p := range Library() {
		if p.RunBatchFused != nil || !p.Supports(s) || p.In != tensor.CHW && p.In != tensor.HWC {
			continue
		}
		if p.Out != p.In {
			continue
		}
		tested++
		const n = 2
		in := makeInputBatch(p.In, n, s)
		k := NewKernel(s.M, s.C, s.K)
		k.FillRandom(7)
		res := tensor.NewBatch(p.Out, n, s.M, s.OutH(), s.OutW())
		for i := 0; i < n; i++ {
			res.Image(i).FillRandom(int64(13 * (i + 1)))
		}
		want := tensor.NewBatch(p.Out, n, s.M, s.OutH(), s.OutW())
		got := tensor.NewBatch(p.Out, n, s.M, s.OutH(), s.OutW())
		RunInto(p, want, in, k, s, 2, gemm.EpiNone, nil)
		applyEpilogueBatch(want, gemm.EpiAddReLU, res, 2)
		RunInto(p, got, in, k, s, 2, gemm.EpiAddReLU, res)
		for i := range got.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("%s: fallback fused path diverges at %d", p.Name, i)
			}
		}
	}
	if tested == 0 {
		t.Fatal("no fallback primitives exercised")
	}
}
