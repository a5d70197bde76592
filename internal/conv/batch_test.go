package conv

import (
	"strings"
	"testing"

	"pbqpdnn/internal/gemm"
	"pbqpdnn/internal/tensor"
)

// makeInputBatch fabricates n distinct images in the primitive's input
// layout.
func makeInputBatch(l tensor.Layout, n int, s Scenario) *tensor.Batch {
	b := tensor.NewBatch(l, n, s.C, s.H, s.W)
	for i := 0; i < n; i++ {
		b.Image(i).FillRandom(int64(100*i + 7))
	}
	return b
}

// batchScenarios is the geometry grid the batched entries are held to:
// 1×1 (the zero-copy im2row path), strided, padded, odd sizes.
func batchScenarios() []Scenario {
	return []Scenario{
		{C: 5, H: 9, W: 11, Stride: 1, K: 3, M: 7, Pad: 1},
		{C: 8, H: 12, W: 12, Stride: 1, K: 1, M: 6, Pad: 0},
		{C: 3, H: 13, W: 9, Stride: 2, K: 3, M: 4, Pad: 1},
		{C: 4, H: 10, W: 10, Stride: 1, K: 5, M: 5, Pad: 2},
	}
}

// TestBatchedEntriesMatchPerImageRun: every primitive carrying a
// batched implementation must compute, image for image, what its
// per-image Run computes. Run is a one-image call of the same entry,
// so this pins that an image's result does not depend on the rest of
// its batch (TestBatchedEntriesMatchReference pins the arithmetic).
// The batch-wide restructure may reorder float work across the thread
// split, so the acceptance bar is the library-wide 1e-4 relative
// tolerance the engine equivalence harness uses.
func TestBatchedEntriesMatchPerImageRun(t *testing.T) {
	const n = 3
	for _, p := range Library() {
		if !p.Batched() {
			continue
		}
		for _, s := range batchScenarios() {
			if !p.Supports(s) {
				continue
			}
			in := makeInputBatch(p.In, n, s)
			k := NewKernel(s.M, s.C, s.K)
			k.FillRandom(3)
			dst := tensor.NewBatch(p.Out, n, s.M, s.OutH(), s.OutW())
			for _, threads := range []int{1, 3} {
				RunInto(p, dst, in, k, s, threads, gemm.EpiNone, nil)
				for i := 0; i < n; i++ {
					want := p.Run(in.Image(i), k, s, 1)
					if !tensor.WithinRel(dst.Image(i), want, 1e-4) {
						t.Errorf("%s %s threads=%d image %d: batched diverges by %g",
							p.Name, s, threads, i, tensor.MaxRelDiff(dst.Image(i), want))
					}
				}
			}
		}
	}
}

// TestBatchedEntriesMatchReference pins every batched entry directly
// to the textbook Reference: the per-image Run of these primitives is a
// one-image call of the same entry, so comparing the two
// (TestBatchedEntriesMatchPerImageRun) cannot catch an arithmetic
// error. Covered: the batch grid and the partial-tile Winograd
// geometries, N ∈ {1,3}, threads ∈ {1,3}.
func TestBatchedEntriesMatchReference(t *testing.T) {
	scenarios := append(append([]Scenario{}, batchScenarios()...), winoOddScenarios...)
	checked := batchedMatchesReference(t, scenarios, func(*Primitive) bool { return true })
	for _, p := range Library() {
		if p.Batched() && !checked[p.Name] {
			t.Errorf("%s: no scenario exercised its batched entry", p.Name)
		}
	}
}

// batchedMatchesReference runs every batched primitive keep accepts
// through RunInto on each scenario it supports, at N ∈ {1,3} and
// threads ∈ {1,3}, and holds each image to Reference within tolFor. It
// returns the names of the primitives it checked.
func batchedMatchesReference(t *testing.T, scenarios []Scenario, keep func(*Primitive) bool) map[string]bool {
	t.Helper()
	const n = 3
	checked := map[string]bool{}
	for _, s := range scenarios {
		k := NewKernel(s.M, s.C, s.K)
		k.FillRandom(int64(s.C + s.M))
		src := makeInputBatch(tensor.CHW, n, s)
		want := make([]*tensor.Tensor, n)
		for i := range want {
			want[i] = Reference(src.Image(i), k, s)
		}
		for _, p := range Library() {
			if !p.Batched() || !keep(p) || !p.Supports(s) {
				continue
			}
			checked[p.Name] = true
			in := tensor.NewBatch(p.In, n, s.C, s.H, s.W)
			for i := 0; i < n; i++ {
				tensor.ConvertInto(in.Image(i), src.Image(i))
			}
			for _, nb := range []int{1, n} {
				sub := tensor.NewBatchWith(p.In, nb, s.C, s.H, s.W, in.Data[:nb*in.Stride])
				dst := tensor.NewBatch(p.Out, nb, s.M, s.OutH(), s.OutW())
				for _, threads := range []int{1, 3} {
					RunInto(p, dst, sub, k, s, threads, gemm.EpiNone, nil)
					for i := 0; i < nb; i++ {
						if d := tensor.MaxAbsDiff(dst.Image(i), want[i]); d > tolFor(s) {
							t.Errorf("%s on %s N=%d threads=%d image %d: max diff %g > tol %g",
								p.Name, s, nb, threads, i, d, tolFor(s))
						}
					}
				}
			}
		}
	}
	return checked
}

// TestRunBatchIntoFallback: RunInto runs a primitive with no batched
// entry per image through Run, and each result lands in its own slab,
// at batch 1 (where Run gets the whole thread budget) as at batch 2.
func TestRunBatchIntoFallback(t *testing.T) {
	lib := Library()
	var fallbacks []*Primitive
	for _, p := range lib {
		if !p.Batched() && (p.Family == FamilyDirect || p.Family == FamilyKn2) {
			fallbacks = append(fallbacks, p)
		}
	}
	if len(fallbacks) == 0 {
		t.Fatal("no fallback primitives to exercise")
	}
	s := Scenario{C: 4, H: 8, W: 8, Stride: 1, K: 3, M: 5, Pad: 1}
	tested := 0
	for _, p := range fallbacks {
		if !p.Supports(s) || p.In.BlockSize() > 0 || p.Out.BlockSize() > 0 {
			continue
		}
		k := NewKernel(s.M, s.C, s.K)
		k.FillRandom(5)
		for _, n := range []int{1, 2} {
			in := makeInputBatch(p.In, n, s)
			dst := tensor.NewBatch(p.Out, n, s.M, s.OutH(), s.OutW())
			RunInto(p, dst, in, k, s, 2, gemm.EpiNone, nil)
			for i := 0; i < n; i++ {
				want := p.Run(in.Image(i), k, s, 1)
				if !tensor.AlmostEqual(dst.Image(i), want, 0) {
					t.Errorf("%s n=%d image %d: fallback differs from per-image Run", p.Name, n, i)
				}
			}
		}
		tested++
		if tested >= 4 {
			break
		}
	}
	if tested == 0 {
		t.Fatal("no fallback primitive supported the test scenario")
	}
}

// TestBatchedCoverage pins that the hot families carry batched
// implementations: every im2col/im2row and wino2d entry must have one.
func TestBatchedCoverage(t *testing.T) {
	for _, p := range Library() {
		batched := p.Batched()
		wantBatched := strings.HasPrefix(p.Name, "im2col-a") || strings.HasPrefix(p.Name, "im2col-b") ||
			strings.HasPrefix(p.Name, "im2col-n") || strings.HasPrefix(p.Name, "im2row-a") ||
			strings.HasPrefix(p.Name, "im2row-b") || strings.HasPrefix(p.Name, "im2row-n") ||
			strings.HasPrefix(p.Name, "wino2d-")
		if wantBatched && !batched {
			t.Errorf("%s: expected a batched entry point", p.Name)
		}
	}
}

// TestRunBatchIntoRejectsMismatch: RunInto must panic on geometry
// violations, not silently compute garbage.
func TestRunBatchIntoRejectsMismatch(t *testing.T) {
	p, err := ByName(Library(), "im2row-blk")
	if err != nil {
		t.Fatal(err)
	}
	s := Scenario{C: 4, H: 8, W: 8, Stride: 1, K: 1, M: 5, Pad: 0}
	in := makeInputBatch(p.In, 2, s)
	k := NewKernel(s.M, s.C, s.K)
	dst := tensor.NewBatch(p.Out, 3, s.M, s.OutH(), s.OutW()) // wrong N
	defer func() {
		if recover() == nil {
			t.Error("mismatched batch sizes did not panic")
		}
	}()
	RunInto(p, dst, in, k, s, 1, gemm.EpiNone, nil)
}
