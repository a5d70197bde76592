// Package winograd implements the Winograd/Cook–Toom fast convolution
// substrate. Rather than hard-coding the handful of transform matrices
// that appear in the literature, it constructs the A, G and B matrices
// for any F(m,r) — m outputs per tile of a radix-r filter — from
// polynomial interpolation points, so the primitive library can offer
// F(2,3), F(4,3), F(2,5), F(3,5) and friends in both 1D and nested-2D
// forms (the paper implements Winograd for K=3 and K=5).
//
// The construction follows the Toom–Cook evaluation/interpolation view
// of short convolution plus the transposition principle: with V_k the
// (m+r-1)×k Vandermonde evaluation matrix over the chosen points
// (including the point at infinity), a correlation tile is
//
//	y = V_mᵀ · [ (V_r·g) ⊙ (V_t⁻ᵀ·d) ],   t = m+r-1,
//
// i.e. Aᵀ = V_mᵀ, G = V_r, Bᵀ = V_t⁻ᵀ.
package winograd

import "fmt"

// Plan holds the transform matrices for a Winograd convolution F(m,r).
// All matrices are dense row-major float64.
type Plan struct {
	M int // outputs per tile
	R int // filter radix (kernel size)
	T int // input tile size, m+r-1

	AT []float64 // m×t output (inverse) transform
	G  []float64 // t×r kernel transform
	BT []float64 // t×t input transform
}

// defaultPoints are the interpolation points used in order; small
// magnitudes (including ±1/2) keep the Vandermonde system well
// conditioned for the tile sizes the primitive library uses (t ≤ 9).
var defaultPoints = []float64{0, 1, -1, 2, -2, 0.5, -0.5, 3, -3, 4, -4}

// NewPlan constructs the transform matrices for F(m,r). It panics if m
// or r is smaller than 1 or the required tile exceeds the supported
// point set.
func NewPlan(m, r int) *Plan {
	if m < 1 || r < 1 {
		panic(fmt.Sprintf("winograd: invalid F(%d,%d)", m, r))
	}
	t := m + r - 1
	if t-1 > len(defaultPoints) {
		panic(fmt.Sprintf("winograd: tile %d too large (max %d)", t, len(defaultPoints)+1))
	}
	pts := defaultPoints[:t-1] // finite points; the t-th is ∞

	vm := vandermonde(pts, t, m)
	vr := vandermonde(pts, t, r)
	vt := vandermonde(pts, t, t)
	vtInv := invert(vt, t)

	p := &Plan{M: m, R: r, T: t,
		AT: make([]float64, m*t),
		G:  vr,
		BT: make([]float64, t*t),
	}
	// AT = V_mᵀ
	for i := 0; i < t; i++ {
		for j := 0; j < m; j++ {
			p.AT[j*t+i] = vm[i*m+j]
		}
	}
	// BT = V_t⁻ᵀ
	for i := 0; i < t; i++ {
		for j := 0; j < t; j++ {
			p.BT[j*t+i] = vtInv[i*t+j]
		}
	}
	return p
}

// vandermonde builds the rows×cols evaluation matrix over pts plus the
// point at infinity: row i is [1, p_i, p_i², …]; the final row selects
// the leading coefficient.
func vandermonde(pts []float64, rows, cols int) []float64 {
	v := make([]float64, rows*cols)
	for i := 0; i < rows-1; i++ {
		x := 1.0
		for j := 0; j < cols; j++ {
			v[i*cols+j] = x
			x *= pts[i]
		}
	}
	v[(rows-1)*cols+cols-1] = 1
	return v
}

// invert returns the inverse of the n×n matrix a via Gauss–Jordan
// elimination with partial pivoting. It panics on a singular matrix,
// which cannot occur for distinct interpolation points.
func invert(a []float64, n int) []float64 {
	m := make([]float64, n*2*n)
	for i := 0; i < n; i++ {
		copy(m[i*2*n:], a[i*n:i*n+n])
		m[i*2*n+n+i] = 1
	}
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if abs(m[r*2*n+col]) > abs(m[piv*2*n+col]) {
				piv = r
			}
		}
		if abs(m[piv*2*n+col]) < 1e-12 {
			panic("winograd: singular Vandermonde system")
		}
		if piv != col {
			for j := 0; j < 2*n; j++ {
				m[col*2*n+j], m[piv*2*n+j] = m[piv*2*n+j], m[col*2*n+j]
			}
		}
		d := m[col*2*n+col]
		for j := 0; j < 2*n; j++ {
			m[col*2*n+j] /= d
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := m[r*2*n+col]
			if f == 0 {
				continue
			}
			for j := 0; j < 2*n; j++ {
				m[r*2*n+j] -= f * m[col*2*n+j]
			}
		}
	}
	inv := make([]float64, n*n)
	for i := 0; i < n; i++ {
		copy(inv[i*n:], m[i*2*n+n:i*2*n+2*n])
	}
	return inv
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// matVec computes y = M·x for a rows×cols row-major matrix.
func matVec(m []float64, rows, cols int, x, y []float64) {
	for i := 0; i < rows; i++ {
		var s float64
		row := m[i*cols : i*cols+cols]
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
}

// KernelTransform1D returns U = G·g (length t) for a length-r kernel.
func (p *Plan) KernelTransform1D(g []float32) []float64 {
	if len(g) != p.R {
		panic(fmt.Sprintf("winograd: kernel length %d, want %d", len(g), p.R))
	}
	x := make([]float64, p.R)
	for i, v := range g {
		x[i] = float64(v)
	}
	u := make([]float64, p.T)
	matVec(p.G, p.T, p.R, x, u)
	return u
}

// InputTransform1D returns V = Bᵀ·d (length t) for a length-t tile.
func (p *Plan) InputTransform1D(d []float64) []float64 {
	if len(d) != p.T {
		panic(fmt.Sprintf("winograd: tile length %d, want %d", len(d), p.T))
	}
	v := make([]float64, p.T)
	matVec(p.BT, p.T, p.T, d, v)
	return v
}

// OutputTransform1D returns y = Aᵀ·s (length m) from the elementwise
// product s of transformed kernel and input.
func (p *Plan) OutputTransform1D(s []float64) []float64 {
	if len(s) != p.T {
		panic(fmt.Sprintf("winograd: product length %d, want %d", len(s), p.T))
	}
	y := make([]float64, p.M)
	matVec(p.AT, p.M, p.T, s, y)
	return y
}

// KernelKron2D returns G⊗G (t²×r²): the 2D kernel transform G·g·Gᵀ
// as one matrix acting on the row-major flattened r×r kernel, so a
// batch of kernels transforms as a single matrix product.
func (p *Plan) KernelKron2D() []float64 { return kron(p.G, p.T, p.R) }

// InputKron2D returns Bᵀ⊗Bᵀ (t²×t²): the 2D input transform Bᵀ·d·B
// acting on the row-major flattened t×t tile.
func (p *Plan) InputKron2D() []float64 { return kron(p.BT, p.T, p.T) }

// OutputKron2D returns Aᵀ⊗Aᵀ (m²×t²): the 2D output transform Aᵀ·s·A
// acting on the row-major flattened t×t product.
func (p *Plan) OutputKron2D() []float64 { return kron(p.AT, p.M, p.T) }

// kron returns a⊗a for a rows×cols row-major matrix a. Row i·rows+j,
// column k·cols+l holds a[i][k]·a[j][l], so (a⊗a)·vec(x) = vec(a·x·aᵀ)
// for row-major vec.
func kron(a []float64, rows, cols int) []float64 {
	out := make([]float64, rows*rows*cols*cols)
	n := cols * cols
	for i := 0; i < rows; i++ {
		for j := 0; j < rows; j++ {
			row := out[(i*rows+j)*n:][:n]
			for k := 0; k < cols; k++ {
				for l := 0; l < cols; l++ {
					row[k*cols+l] = a[i*cols+k] * a[j*cols+l]
				}
			}
		}
	}
	return out
}

// Flops1D returns the number of multiplications a direct 1D tile would
// use versus the Winograd tile, as (direct, winograd); used by the cost
// model to reason about the family's arithmetic advantage.
func (p *Plan) Flops1D() (direct, wino int) { return p.M * p.R, p.T }
