package conv

import (
	"strings"
	"testing"

	"pbqpdnn/internal/gemm"
	"pbqpdnn/internal/tensor"
)

// TestWinoGatherPadding checks the slab gathers against their
// definition, D[a·t+b][tile·C + c] = src(c, ty·m+a−pad, tx·m+b−pad)
// with zeros outside the image, for CHW and HWC at pad 1 and 2, on
// every tile. The 5×6 image's tiles overhang it at all four corners:
// top and left by pad, bottom and right by the last tiles' windows.
func TestWinoGatherPadding(t *testing.T) {
	for _, layout := range []tensor.Layout{tensor.CHW, tensor.HWC} {
		for _, pad := range []int{1, 2} {
			const m, c, h, w = 2, 2, 5, 6
			r := 2*pad + 1
			tp := m + r - 1
			in := tensor.New(layout, c, h, w)
			for i := range in.Data {
				in.Data[i] = float32(i + 1) // no genuine zeros
			}
			oh, ow := h+2*pad-r+1, w+2*pad-r+1
			tilesY := (oh + m - 1) / m
			g := winoGeom{m: m, t: tp, pad: pad, c: c, h: h, w: w, outC: 1, oh: oh, ow: ow,
				tilesY: tilesY, tilesX: (ow + m - 1) / m, inStride: len(in.Data)}
			n := tilesY * g.tilesX
			d := make([]float32, tp*tp*n*c)
			for i := range d {
				d[i] = -1 // sentinel: every entry must be written
			}
			if layout == tensor.HWC {
				winoGatherHWC(d, in.Data, &g, 0, n)
			} else {
				winoGatherCHW(d, in.Data, &g, 0, n)
			}
			at := func(a, b, ch, ty, tx int) float32 {
				return d[((a*tp+b)*n+ty*g.tilesX+tx)*c+ch]
			}
			for ch := 0; ch < c; ch++ {
				for ty := 0; ty < tilesY; ty++ {
					for tx := 0; tx < g.tilesX; tx++ {
						for a := 0; a < tp; a++ {
							for b := 0; b < tp; b++ {
								ih, iw := ty*m+a-pad, tx*m+b-pad
								want := float32(0)
								if ih >= 0 && ih < h && iw >= 0 && iw < w {
									want = in.At(ch, ih, iw)
								}
								if got := at(a, b, ch, ty, tx); got != want {
									t.Fatalf("%s pad %d: tile (%d,%d) pixel (%d,%d) ch %d = %v, want %v",
										layout, pad, ty, tx, a, b, ch, got, want)
								}
							}
						}
					}
				}
			}
		}
	}
}

// winoOddScenarios have output extents that are not multiples of the
// tile size, so boundary tiles write partially.
var winoOddScenarios = []Scenario{
	{C: 2, H: 7, W: 5, Stride: 1, K: 3, M: 3, Pad: 1},  // 7×5 out, m∤
	{C: 3, H: 9, W: 11, Stride: 1, K: 5, M: 2, Pad: 2}, // 9×11 out
	{C: 1, H: 3, W: 3, Stride: 1, K: 3, M: 1, Pad: 1},  // single partial tile
}

// TestWinoNonDivisibleTiles exercises output extents that are not
// multiples of the tile size (boundary tiles write partially).
func TestWinoNonDivisibleTiles(t *testing.T) {
	for _, s := range winoOddScenarios {
		in := tensor.New(tensor.CHW, s.C, s.H, s.W)
		in.FillRandom(int64(s.H))
		k := NewKernel(s.M, s.C, s.K)
		k.FillRandom(int64(s.W))
		want := Reference(in, k, s)
		for _, p := range winoPrimitives() {
			if !p.Supports(s) {
				continue
			}
			out := p.Run(tensor.Convert(in, p.In), k, s, 2)
			if d := tensor.MaxAbsDiff(out, want); d > tolFor(s) {
				t.Errorf("%s on %s: diff %g", p.Name, s, d)
			}
		}
	}
}

// TestWino2DBatchMatchesReference pins the batched 2D Winograd entry
// to Reference on two GoogLeNet inception shapes, beyond the small grid
// TestBatchedEntriesMatchReference holds every batched entry to.
func TestWino2DBatchMatchesReference(t *testing.T) {
	checked := batchedMatchesReference(t, []Scenario{
		{C: 96, H: 28, W: 28, Stride: 1, K: 3, M: 128, Pad: 1}, // inception 3a 3×3
		{C: 16, H: 28, W: 28, Stride: 1, K: 5, M: 32, Pad: 2},  // inception 3a 5×5
	}, func(p *Primitive) bool { return strings.HasPrefix(p.Name, "wino2d-") })
	if len(checked) == 0 {
		t.Fatal("no wino2d primitive supports the inception shapes")
	}
}

// TestWino2DAllocsBounded: one batched wino2d call makes a fixed number
// of allocations (its one panel buffer plus the thread fan-out), not a
// number that grows with channels or tiles.
func TestWino2DAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are nondeterministic under the race detector (see race_test.go)")
	}
	for _, name := range []string{"wino2d-m4-k3-vf8", "wino2d-m4-k3-vf8-HWC"} {
		p, err := ByName(Library(), name)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []Scenario{
			{C: 4, H: 8, W: 8, Stride: 1, K: 3, M: 4, Pad: 1},
			{C: 48, H: 28, W: 28, Stride: 1, K: 3, M: 32, Pad: 1},
		} {
			in := makeInputBatch(p.In, 2, s)
			k := NewKernel(s.M, s.C, s.K)
			k.FillRandom(1)
			dst := tensor.NewBatch(p.Out, 2, s.M, s.OutH(), s.OutW())
			for _, threads := range []int{1, 3} {
				// A few per call plus a fixed number per extra worker
				// goroutine the stages fan out to.
				bound := float64(8 + 12*(threads-1))
				allocs := testing.AllocsPerRun(5, func() {
					RunInto(p, dst, in, k, s, threads, gemm.EpiNone, nil)
				})
				if allocs > bound {
					t.Errorf("%s on %s threads=%d: %.0f allocations per call, want ≤ %.0f",
						name, s, threads, allocs, bound)
				}
			}
		}
	}
}

// TestWinoMetadata: every Winograd primitive carries consistent tile
// parameters and constraints.
func TestWinoMetadata(t *testing.T) {
	for _, p := range winoPrimitives() {
		if p.WinoM < 1 || p.WinoR < 3 {
			t.Errorf("%s: bad tile F(%d,%d)", p.Name, p.WinoM, p.WinoR)
		}
		if len(p.Ks) != 1 || p.Ks[0] != p.WinoR {
			t.Errorf("%s: Ks %v inconsistent with radix %d", p.Name, p.Ks, p.WinoR)
		}
		if p.Strided {
			t.Errorf("%s: winograd cannot stride", p.Name)
		}
		if p.Workspace(Scenario{C: 8, H: 8, W: 8, Stride: 1, K: p.WinoR, M: 8, Pad: p.WinoR / 2}) <= 0 {
			t.Errorf("%s: workspace must be positive", p.Name)
		}
	}
}

// TestWino1DLessWorkspaceThan2D: for the same F(m,r) the 1D algorithm's
// resident set is about r× smaller — the ARM-vs-Intel mechanism.
func TestWino1DLessWorkspaceThan2D(t *testing.T) {
	s := Scenario{C: 64, H: 28, W: 28, Stride: 1, K: 3, M: 64, Pad: 1}
	w2 := winoWorkspace2D(4, 3)(s)
	w1 := winoWorkspace1D(4, 3)(s)
	if w1*4 > w2*3 { // at least ~4/3 smaller; actually ≈ r·t/t = 3×
		t.Errorf("1D workspace %d not sufficiently below 2D %d", w1, w2)
	}
}

// TestFFTRowHelpers covers the fft family's row extraction.
func TestFFTRowHelpers(t *testing.T) {
	k := NewKernel(1, 1, 3)
	k.Set(0, 0, 0, 0, 1)
	k.Set(0, 0, 0, 1, 2)
	k.Set(0, 0, 0, 2, 3)
	r := reverseRow(k, 0, 0, 0)
	if r[0] != 3 || r[1] != 2 || r[2] != 1 {
		t.Errorf("reverseRow = %v", r)
	}

	s := Scenario{C: 1, H: 2, W: 3, Stride: 1, K: 3, M: 1, Pad: 2}
	in := tensor.New(tensor.CHW, 1, 2, 3)
	in.Set(0, 1, 0, 7)
	row := paddedRow(in, s, 0, 1)
	if len(row) != 3+4 {
		t.Fatalf("padded row length %d", len(row))
	}
	if row[0] != 0 || row[1] != 0 || row[2] != 7 {
		t.Errorf("padding misplaced: %v", row)
	}
	// Out-of-image rows are all zero.
	for _, v := range paddedRow(in, s, 0, -1) {
		if v != 0 {
			t.Error("out-of-image row should be zero")
		}
	}
}

// TestFFTLargeKernel: the fft family's raison d'être — correctness on a
// big kernel where other fast algorithms don't apply.
func TestFFTLargeKernel(t *testing.T) {
	s := Scenario{C: 2, H: 9, W: 16, Stride: 1, K: 9, M: 2, Pad: 4}
	in := tensor.New(tensor.CHW, 2, 9, 16)
	in.FillRandom(11)
	k := NewKernel(2, 2, 9)
	k.FillRandom(12)
	want := Reference(in, k, s)
	for _, p := range fftPrimitives() {
		if !p.Supports(s) {
			continue
		}
		out := p.Run(tensor.Convert(in, p.In), k, s, 2)
		if d := tensor.MaxAbsDiff(out, want); d > tolFor(s) {
			t.Errorf("%s: K=9 diff %g", p.Name, d)
		}
	}
}
