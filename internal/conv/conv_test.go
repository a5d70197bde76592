package conv

import (
	"testing"

	"pbqpdnn/internal/tensor"
)

// testScenarios is a grid covering strided/non-strided, padded/unpadded,
// small/large channel counts and the kernel sizes the networks use.
var testScenarios = []Scenario{
	{C: 1, H: 6, W: 6, Stride: 1, K: 1, M: 1, Pad: 0},
	{C: 3, H: 8, W: 8, Stride: 1, K: 3, M: 4, Pad: 1},
	{C: 4, H: 7, W: 9, Stride: 1, K: 3, M: 5, Pad: 0},
	{C: 8, H: 10, W: 10, Stride: 1, K: 5, M: 6, Pad: 2},
	{C: 5, H: 9, W: 9, Stride: 1, K: 5, M: 3, Pad: 0},
	{C: 3, H: 13, W: 13, Stride: 2, K: 3, M: 4, Pad: 1},
	{C: 3, H: 15, W: 15, Stride: 4, K: 11, M: 2, Pad: 0},
	{C: 9, H: 6, W: 6, Stride: 1, K: 1, M: 7, Pad: 0},
	{C: 16, H: 5, W: 5, Stride: 1, K: 3, M: 8, Pad: 1},
	{C: 2, H: 12, W: 7, Stride: 1, K: 7, M: 3, Pad: 3},
	{C: 6, H: 8, W: 8, Stride: 2, K: 5, M: 4, Pad: 2},
}

// tolFor scales the comparison tolerance with the reduction length,
// since float32 accumulation order differs between algorithms.
func tolFor(s Scenario) float64 {
	return 1e-4 * float64(s.C*s.K*s.K)
}

// TestAllPrimitivesMatchReference is the library-wide correctness gate:
// every primitive, on every scenario it supports, must agree with the
// textbook reference, in both single- and multi-threaded execution.
func TestAllPrimitivesMatchReference(t *testing.T) {
	lib := Library()
	if len(lib) == 0 {
		t.Fatal("empty library")
	}
	for _, s := range testScenarios {
		in := tensor.New(tensor.CHW, s.C, s.H, s.W)
		in.FillRandom(int64(s.C + s.H + s.K))
		k := NewKernel(s.M, s.C, s.K)
		k.FillRandom(int64(s.M * s.K))
		want := Reference(in, k, s)
		for _, p := range lib {
			if !p.Supports(s) {
				continue
			}
			src := tensor.Convert(in, p.In)
			for _, threads := range []int{1, 4} {
				got := p.Run(src, k, s, threads)
				if got.Layout != p.Out {
					t.Fatalf("%s: output layout %s, want %s", p.Name, got.Layout, p.Out)
				}
				if got.C != s.M || got.H != s.OutH() || got.W != s.OutW() {
					t.Fatalf("%s on %s: output shape %s", p.Name, s, got)
				}
				if d := tensor.MaxAbsDiff(got, want); d > tolFor(s) {
					t.Errorf("%s on %s (threads=%d): max diff %g > tol %g",
						p.Name, s, threads, d, tolFor(s))
				}
			}
		}
	}
}

// TestEveryScenarioHasCoverage makes sure the scenario grid actually
// exercises each family.
func TestEveryScenarioHasCoverage(t *testing.T) {
	lib := Library()
	covered := map[Family]int{}
	for _, s := range testScenarios {
		for _, p := range lib {
			if p.Supports(s) {
				covered[p.Family]++
			}
		}
	}
	for _, f := range Families() {
		if covered[f] == 0 {
			t.Errorf("family %s never exercised by test scenarios", f)
		}
	}
}

func TestLibrarySize(t *testing.T) {
	lib := Library()
	if len(lib) < 70 {
		t.Errorf("library has %d primitives; the paper's library has more than 70", len(lib))
	}
	names := map[string]bool{}
	for _, p := range lib {
		if names[p.Name] {
			t.Errorf("duplicate primitive name %q", p.Name)
		}
		names[p.Name] = true
		if p.Run == nil || p.Workspace == nil {
			t.Errorf("%s: missing Run or Workspace", p.Name)
		}
		if !p.In.Valid() || !p.Out.Valid() {
			t.Errorf("%s: invalid layouts", p.Name)
		}
		if p.VF != 1 && p.VF != 4 && p.VF != 8 {
			t.Errorf("%s: unexpected vector factor %d", p.Name, p.VF)
		}
	}
}

// BenchmarkLibrary times one Library() build. The selector rebuilds
// the library on every SelectBatch, so this is on the serving set-up
// path; per-F(m,r) Winograd plans and operators are shared, not rebuilt.
func BenchmarkLibrary(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		Library()
	}
}

func TestLibraryFamilies(t *testing.T) {
	lib := Library()
	for _, f := range Families() {
		members := ByFamily(lib, f)
		if len(members) == 0 {
			t.Errorf("family %s has no primitives", f)
		}
		for _, p := range members {
			if p.Family != f {
				t.Errorf("ByFamily(%s) returned %s", f, p.Name)
			}
		}
	}
	// Winograd is the largest family, as in the paper.
	if w := len(ByFamily(lib, FamilyWinograd)); w < 20 {
		t.Errorf("winograd family has %d variants, want ≥ 20", w)
	}
}

func TestByName(t *testing.T) {
	lib := Library()
	p, err := ByName(lib, "sum2d")
	if err != nil || p.Name != "sum2d" {
		t.Fatalf("ByName(sum2d) = %v, %v", p, err)
	}
	if _, err := ByName(lib, "no-such"); err == nil {
		t.Error("ByName should fail for unknown primitive")
	}
}

func TestSupportsConstraints(t *testing.T) {
	lib := Library()
	strided := Scenario{C: 4, H: 8, W: 8, Stride: 2, K: 3, M: 4, Pad: 1}
	for _, p := range ByFamily(lib, FamilyKn2) {
		if p.Supports(strided) {
			t.Errorf("%s: kn2 must not support strided convolution", p.Name)
		}
	}
	for _, p := range ByFamily(lib, FamilyWinograd) {
		if p.Supports(strided) {
			t.Errorf("%s: winograd must not support strided convolution", p.Name)
		}
		k7 := Scenario{C: 4, H: 8, W: 8, Stride: 1, K: 7, M: 4, Pad: 3}
		if p.Supports(k7) {
			t.Errorf("%s: winograd supports only its own radix", p.Name)
		}
	}
	// Invalid scenarios are rejected by everyone.
	bad := Scenario{C: 0, H: 8, W: 8, Stride: 1, K: 3, M: 4}
	for _, p := range lib {
		if p.Supports(bad) {
			t.Errorf("%s: must reject invalid scenario", p.Name)
		}
	}
}

func TestScenarioGeometry(t *testing.T) {
	s := Scenario{C: 3, H: 227, W: 227, Stride: 4, K: 11, M: 96, Pad: 0}
	if s.OutH() != 55 || s.OutW() != 55 {
		t.Errorf("AlexNet conv1 output = %d×%d, want 55×55", s.OutH(), s.OutW())
	}
	s2 := Scenario{C: 64, H: 224, W: 224, Stride: 1, K: 3, M: 64, Pad: 1}
	if s2.OutH() != 224 || s2.OutW() != 224 {
		t.Errorf("VGG same-conv output = %d×%d, want 224×224", s2.OutH(), s2.OutW())
	}
	if s2.Flops() != 2*224*224*64*9*64 {
		t.Errorf("Flops = %g", s2.Flops())
	}
	if s2.InputBytes() != 64*224*224*4 {
		t.Errorf("InputBytes = %d", s2.InputBytes())
	}
	if s2.OutputBytes() != 64*224*224*4 {
		t.Errorf("OutputBytes = %d", s2.OutputBytes())
	}
	if s2.KernelBytes() != 64*64*9*4 {
		t.Errorf("KernelBytes = %d", s2.KernelBytes())
	}
}

func TestScenarioValidate(t *testing.T) {
	good := Scenario{C: 1, H: 4, W: 4, Stride: 1, K: 3, M: 1, Pad: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("valid scenario rejected: %v", err)
	}
	bads := []Scenario{
		{C: 0, H: 4, W: 4, Stride: 1, K: 3, M: 1},
		{C: 1, H: 4, W: 4, Stride: 0, K: 3, M: 1},
		{C: 1, H: 4, W: 4, Stride: 1, K: 3, M: 1, Pad: -1},
		{C: 1, H: 2, W: 2, Stride: 1, K: 5, M: 1},
		{C: 1, H: 4, W: 4, Stride: 1, K: 3, M: 1, Pad: 1, Sparsity: 1.5},
	}
	for i, b := range bads {
		if err := b.Validate(); err == nil {
			t.Errorf("bad scenario %d accepted", i)
		}
	}
}

func TestKernelAccessors(t *testing.T) {
	k := NewKernel(2, 3, 3)
	k.Set(1, 2, 0, 1, 42)
	if k.At(1, 2, 0, 1) != 42 {
		t.Error("kernel Set/At mismatch")
	}
	k.FillRandom(1)
	k2 := NewKernel(2, 3, 3)
	k2.FillRandom(1)
	for i := range k.Data {
		if k.Data[i] != k2.Data[i] {
			t.Fatal("FillRandom not deterministic")
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("NewKernel should panic on bad dims")
		}
	}()
	NewKernel(0, 1, 1)
}

func TestFillSparse(t *testing.T) {
	k := NewKernel(8, 8, 3)
	k.FillSparse(7, 0.8)
	zeros := 0
	for _, v := range k.Data {
		if v == 0 {
			zeros++
		}
	}
	frac := float64(zeros) / float64(len(k.Data))
	if frac < 0.7 || frac > 0.9 {
		t.Errorf("sparsity = %v, want ≈ 0.8", frac)
	}
}

// TestSparsePrimitivesOnSparseKernels runs the sparse routines on an
// actually sparse kernel and checks exactness.
func TestSparsePrimitivesOnSparseKernels(t *testing.T) {
	s := Scenario{C: 8, H: 9, W: 9, Stride: 1, K: 3, M: 6, Pad: 1}
	in := tensor.New(tensor.CHW, s.C, s.H, s.W)
	in.FillRandom(3)
	k := NewKernel(s.M, s.C, s.K)
	k.FillSparse(9, 0.7)
	want := Reference(in, k, s)
	for _, p := range sparsePrimitives() {
		got := p.Run(in, k, s, 1)
		if d := tensor.MaxAbsDiff(got, want); d > tolFor(s) {
			t.Errorf("%s: diff %g", p.Name, d)
		}
		if !p.Sparse {
			t.Errorf("%s should be marked Sparse", p.Name)
		}
	}
}

func TestFamilyString(t *testing.T) {
	want := map[Family]string{
		FamilySum2D: "sum2d", FamilyDirect: "direct", FamilyIm2: "im2",
		FamilyKn2: "kn2", FamilyWinograd: "winograd", FamilyFFT: "fft",
	}
	for f, s := range want {
		if f.String() != s {
			t.Errorf("%v.String() = %q", uint8(f), f.String())
		}
	}
}

// TestWorkspaceOrdering pins Table 1's memory column: for a large-image
// layer, im2's workspace exceeds kn2's, and 1D Winograd needs less than
// 2D Winograd.
func TestWorkspaceOrdering(t *testing.T) {
	lib := Library()
	s := Scenario{C: 64, H: 112, W: 112, Stride: 1, K: 3, M: 128, Pad: 1}
	im2, _ := ByName(lib, "im2col-ab")
	kn2, _ := ByName(lib, "kn2row-ab")
	if im2.Workspace(s) <= kn2.Workspace(s) {
		t.Errorf("im2 workspace %d should exceed kn2 %d", im2.Workspace(s), kn2.Workspace(s))
	}
	w2d, _ := ByName(lib, "wino2d-m4-k3-vf4")
	w1d, _ := ByName(lib, "wino1d-m4-k3-vf4")
	if w1d.Workspace(s) >= w2d.Workspace(s) {
		t.Errorf("wino1d workspace %d should be below wino2d %d", w1d.Workspace(s), w2d.Workspace(s))
	}
	sum, _ := ByName(lib, "sum2d")
	if sum.Workspace(s) != 0 {
		t.Error("sum2d needs no workspace")
	}
}
