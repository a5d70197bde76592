package conv

import (
	"fmt"

	"pbqpdnn/internal/tensor"
	"pbqpdnn/internal/winograd"
)

// The Winograd family (paper §4): fast convolution with a theoretically
// minimal multiplication count, for K=3 and K=5. Two shapes are
// provided, matching the paper's Figure 4 selections:
//
//   - 2D tiled F(m×m, r×r): fewest operations but a large transformed-
//     input workspace — fast on big-cache CPUs (the Intel selections);
//   - 1D row-wise F(m, r): 2D convolution as a sum of 1D Winograd
//     convolutions — more arithmetic but far less memory, which is why
//     the optimizer picks it on the small-cache ARM core.
//
// The 2D primitives run every stage on the packed GEMM (wino2DBatch);
// the 1D primitives keep a scalar float64 pipeline whose VF variants
// block the channel accumulation by 4 or 8 lanes, the scalar analogue
// of the paper's NEON/AVX2 vector-factor variants.

// winoTile is one F(m,r): its plan, which the 1D algorithm applies row
// by row, and its 2D transforms as Kronecker operators computed in
// float64 and rounded once to float32 for the GEMM.
type winoTile struct {
	plan       *winograd.Plan
	kg, kb, ka []float32 // G⊗G (t²×r²), Bᵀ⊗Bᵀ (t²×t²), Aᵀ⊗Aᵀ (m²×t²)
}

// winoTiles holds every F(m,r) the library offers, built once per
// process: Library() is rebuilt on every selection, and constructing
// plans and operators per call would dominate it.
var winoTiles = func() map[[2]int]*winoTile {
	f32 := func(x []float64) []float32 {
		y := make([]float32, len(x))
		for i, v := range x {
			y[i] = float32(v)
		}
		return y
	}
	tiles := map[[2]int]*winoTile{}
	for _, mr := range [][2]int{{2, 3}, {4, 3}, {6, 3}, {2, 5}, {3, 5}} {
		p := winograd.NewPlan(mr[0], mr[1])
		tiles[mr] = &winoTile{plan: p,
			kg: f32(p.KernelKron2D()), kb: f32(p.InputKron2D()), ka: f32(p.OutputKron2D())}
	}
	return tiles
}()

// winoAccumRow accumulates the elementwise product of urow and vrow
// into acc: acc[i] += urow[i]·vrow[i]. Both operand rows are re-sliced
// to acc's length so all three indexes share one SSA length value and
// the loop carries no bounds checks. This is the 1D Winograd pointwise
// stage — the algorithm's only O(C·M·tiles) inner loop.
//
//dnn:hotpath
func winoAccumRow(acc, urow, vrow []float64) {
	urow = urow[:len(acc)]
	vrow = vrow[:len(acc)]
	for i, uv := range urow {
		acc[i] += uv * vrow[i]
	}
}

// wino1D returns a row-wise 1D Winograd Run for F(m, r): 2D convolution
// as the sum over kernel rows of 1D convolutions, with channel and
// kernel-row accumulation done in the Winograd domain per row tile.
func wino1D(m, r, vf int, layout tensor.Layout) func(*tensor.Tensor, *Kernel, Scenario, int) *tensor.Tensor {
	plan := winoTiles[[2]int{m, r}].plan
	return func(in *tensor.Tensor, k *Kernel, s Scenario, threads int) *tensor.Tensor {
		checkLayout(in, layout, "wino1d")
		checkScenario(in, k, s)
		if s.Stride != 1 || s.K != r {
			panic(fmt.Sprintf("wino1d F(%d,%d): unsupported scenario %s", m, r, s))
		}
		oh, ow := s.OutH(), s.OutW()
		t := plan.T
		// Transform every kernel row: u[(mm,c,kh)] has length t.
		u := make([][]float64, s.M*s.C*r)
		for mm := 0; mm < s.M; mm++ {
			for c := 0; c < s.C; c++ {
				for kh := 0; kh < r; kh++ {
					row := make([]float32, r)
					for kw := 0; kw < r; kw++ {
						row[kw] = k.At(mm, c, kh, kw)
					}
					u[(mm*s.C+c)*r+kh] = plan.KernelTransform1D(row)
				}
			}
		}
		out := tensor.New(layout, s.M, oh, ow)
		tilesX := (ow + m - 1) / m
		parallelFor(threads, oh, func(y int) {
			d := make([]float64, t)
			sum := make([]float64, t)
			laneAcc := make([][]float64, vf)
			for l := range laneAcc {
				laneAcc[l] = make([]float64, t)
			}
			tailAcc := make([]float64, t)
			// Transformed input row-tiles for (c,kh) pairs of this output
			// row: v[c*r+kh] — each input row is shared by all kernel rows
			// that reference it, but per output row we just transform the
			// r contributing rows per channel.
			v := make([][]float64, s.C*r)
			for i := range v {
				v[i] = make([]float64, t)
			}
			for tx := 0; tx < tilesX; tx++ {
				x0 := tx * m
				for c := 0; c < s.C; c++ {
					for kh := 0; kh < r; kh++ {
						ih := y + kh - s.Pad
						for j := 0; j < t; j++ {
							iw := x0 + j - s.Pad
							if ih < 0 || ih >= s.H || iw < 0 || iw >= s.W {
								d[j] = 0
							} else {
								d[j] = float64(in.At(c, ih, iw))
							}
						}
						copy(v[c*r+kh], plan.InputTransform1D(d))
					}
				}
				for mm := 0; mm < s.M; mm++ {
					// Channel accumulation blocked by vf lanes over
					// (channel, kernel-row) pairs: each lane keeps its own
					// running row, tail pairs theirs, and the rows combine
					// tail-first then lanes in order.
					for l := range laneAcc {
						clear(laneAcc[l])
					}
					clear(tailAcc)
					pairs := s.C * r
					p := 0
					for ; p+vf <= pairs; p += vf {
						for l := 0; l < vf; l++ {
							winoAccumRow(laneAcc[l], u[mm*pairs+p+l], v[p+l])
						}
					}
					for ; p < pairs; p++ {
						winoAccumRow(tailAcc, u[mm*pairs+p], v[p])
					}
					for i := range sum {
						tail := tailAcc[i]
						for _, lrow := range laneAcc {
							tail += lrow[i]
						}
						sum[i] = tail
					}
					yv := plan.OutputTransform1D(sum)
					for j := 0; j < m && x0+j < ow; j++ {
						out.Set(mm, y, x0+j, float32(yv[j]))
					}
				}
			}
		})
		return out
	}
}

// winoWorkspace2D models the resident working set of the 2D algorithm
// in float32 units: the full Winograd-domain kernel tensor plus one row
// of transformed input tiles. This is the "significant memory" Table 1
// charges the 2D algorithm with; it prices the algorithm, not the
// whole-batch panels wino2DBatch holds.
func winoWorkspace2D(m, r int) func(Scenario) int64 {
	t := m + r - 1
	return func(s Scenario) int64 {
		kernelDomain := int64(s.M) * int64(s.C) * int64(t*t) * 4
		tileRow := int64(s.C) * int64(t*t) * 4 * int64((s.OutW()+m-1)/m)
		return kernelDomain + tileRow
	}
}

// winoWorkspace1D models the much smaller 1D working set: the row-wise
// algorithm streams one kernel-tap row at a time, so only an M×C×t
// slice of the transformed kernels plus the current row tiles must stay
// resident — r× less than the 2D kernel domain.
func winoWorkspace1D(m, r int) func(Scenario) int64 {
	t := m + r - 1
	return func(s Scenario) int64 {
		kernelRowSlice := int64(s.M) * int64(s.C) * int64(t) * 4
		rowTiles := int64(s.C) * int64(r) * int64(t) * 4
		return kernelRowSlice + rowTiles
	}
}

// winoPrimitives assembles the Winograd family: the cross product of
// tile size F(m,r), dimensionality, vector factor and layout used by the
// paper's experiments.
func winoPrimitives() []*Primitive {
	var ps []*Primitive
	add2d := func(m, r, vf int, layout tensor.Layout) {
		suffix := ""
		if layout != tensor.CHW {
			suffix = "-" + layout.String()
		}
		p := &Primitive{
			Name:   fmt.Sprintf("wino2d-m%d-k%d-vf%d%s", m, r, vf, suffix),
			Family: FamilyWinograd, In: layout, Out: layout,
			VF: vf, Ks: []int{r}, MinC: 1,
			WinoM: m, WinoR: r, Wino2D: true,
			Workspace: winoWorkspace2D(m, r),
			RunBatch:  wino2DBatch(m, r, layout),
		}
		p.Run = p.oneImage
		ps = append(ps, p)
	}
	add1d := func(m, r, vf int, layout tensor.Layout) {
		suffix := ""
		if layout != tensor.CHW {
			suffix = "-" + layout.String()
		}
		ps = append(ps, &Primitive{
			Name:   fmt.Sprintf("wino1d-m%d-k%d-vf%d%s", m, r, vf, suffix),
			Family: FamilyWinograd, In: layout, Out: layout,
			VF: vf, Ks: []int{r}, MinC: 1,
			WinoM: m, WinoR: r, Wino2D: false,
			Workspace: winoWorkspace1D(m, r),
			Run:       wino1D(m, r, vf, layout),
		})
	}
	// 2D tiles: F(2,3), F(4,3), F(6,3) for K=3 and F(2,5), F(3,5) for
	// K=5, each at VF4/VF8 in both the channels-last layout the
	// pointwise stage vectorizes best over (HWC) and the canonical CHW.
	for _, mr := range [][2]int{{2, 3}, {4, 3}, {6, 3}, {2, 5}, {3, 5}} {
		for _, vf := range []int{4, 8} {
			add2d(mr[0], mr[1], vf, tensor.CHW)
			add2d(mr[0], mr[1], vf, tensor.HWC)
		}
	}
	// Scalar 2D reference variants.
	add2d(2, 3, 1, tensor.CHW)
	add2d(4, 3, 1, tensor.CHW)
	// 1D tiles: row-wise algorithms want row-contiguous layouts (CHW,
	// HCW); an HWC variant exists but gathers strided rows.
	for _, mr := range [][2]int{{2, 3}, {4, 3}, {2, 5}, {3, 5}} {
		for _, vf := range []int{4, 8} {
			add1d(mr[0], mr[1], vf, tensor.CHW)
			add1d(mr[0], mr[1], vf, tensor.HCW)
		}
	}
	add1d(2, 3, 4, tensor.HWC)
	add1d(4, 3, 8, tensor.HWC)
	return ps
}
