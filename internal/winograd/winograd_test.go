package winograd

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// The direct 2D transforms below are the oracle the Kronecker
// operators are checked against: each is the textbook sandwich M·x·Mᵀ
// in float64.

// KernelTransform2D returns U = G·g·Gᵀ (t×t) for an r×r kernel given
// row-major.
func (p *Plan) KernelTransform2D(g []float32) []float64 {
	if len(g) != p.R*p.R {
		panic(fmt.Sprintf("winograd: kernel size %d, want %d", len(g), p.R*p.R))
	}
	gf := make([]float64, p.R*p.R)
	for i, v := range g {
		gf[i] = float64(v)
	}
	return p.sandwich(p.G, p.T, p.R, gf)
}

// InputTransform2D returns V = Bᵀ·d·B (t×t) for a t×t input tile.
func (p *Plan) InputTransform2D(d []float64) []float64 {
	if len(d) != p.T*p.T {
		panic(fmt.Sprintf("winograd: tile size %d, want %d", len(d), p.T*p.T))
	}
	return p.sandwich(p.BT, p.T, p.T, d)
}

// OutputTransform2D returns Y = Aᵀ·s·A (m×m) from the t×t elementwise
// product.
func (p *Plan) OutputTransform2D(s []float64) []float64 {
	if len(s) != p.T*p.T {
		panic(fmt.Sprintf("winograd: product size %d, want %d", len(s), p.T*p.T))
	}
	return p.sandwich(p.AT, p.M, p.T, s)
}

// sandwich computes M·x·Mᵀ where M is rows×cols and x is cols×cols.
func (p *Plan) sandwich(m []float64, rows, cols int, x []float64) []float64 {
	tmp := make([]float64, rows*cols) // M·x
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			var s float64
			for k := 0; k < cols; k++ {
				s += m[i*cols+k] * x[k*cols+j]
			}
			tmp[i*cols+j] = s
		}
	}
	out := make([]float64, rows*rows) // (M·x)·Mᵀ
	for i := 0; i < rows; i++ {
		for j := 0; j < rows; j++ {
			var s float64
			for k := 0; k < cols; k++ {
				s += tmp[i*cols+k] * m[j*cols+k]
			}
			out[i*rows+j] = s
		}
	}
	return out
}

// corr1D is the reference correlation: y_i = Σ_j d[i+j]·g[j].
func corr1D(d, g []float64) []float64 {
	m := len(d) - len(g) + 1
	y := make([]float64, m)
	for i := 0; i < m; i++ {
		for j := range g {
			y[i] += d[i+j] * g[j]
		}
	}
	return y
}

// corr2D is the reference 2D correlation over a full tile.
func corr2D(d []float64, t int, g []float32, r int) []float64 {
	m := t - r + 1
	y := make([]float64, m*m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			var s float64
			for a := 0; a < r; a++ {
				for b := 0; b < r; b++ {
					s += d[(i+a)*t+(j+b)] * float64(g[a*r+b])
				}
			}
			y[i*m+j] = s
		}
	}
	return y
}

var planCases = []struct{ m, r int }{
	{2, 3}, {4, 3}, {6, 3}, {2, 5}, {3, 5}, {4, 5}, {2, 7}, {1, 3}, {3, 1},
}

func TestPlan1DMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, pc := range planCases {
		p := NewPlan(pc.m, pc.r)
		if p.T != pc.m+pc.r-1 {
			t.Fatalf("F(%d,%d): tile %d", pc.m, pc.r, p.T)
		}
		for trial := 0; trial < 10; trial++ {
			g := make([]float32, pc.r)
			d := make([]float64, p.T)
			gf := make([]float64, pc.r)
			for i := range g {
				g[i] = rng.Float32()*2 - 1
				gf[i] = float64(g[i])
			}
			for i := range d {
				d[i] = rng.Float64()*2 - 1
			}
			u := p.KernelTransform1D(g)
			v := p.InputTransform1D(d)
			s := make([]float64, p.T)
			for i := range s {
				s[i] = u[i] * v[i]
			}
			got := p.OutputTransform1D(s)
			want := corr1D(d, gf)
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-8 {
					t.Fatalf("F(%d,%d) trial %d: y[%d] = %v, want %v", pc.m, pc.r, trial, i, got[i], want[i])
				}
			}
		}
	}
}

func TestPlan2DMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, pc := range planCases {
		p := NewPlan(pc.m, pc.r)
		g := make([]float32, pc.r*pc.r)
		d := make([]float64, p.T*p.T)
		for i := range g {
			g[i] = rng.Float32()*2 - 1
		}
		for i := range d {
			d[i] = rng.Float64()*2 - 1
		}
		u := p.KernelTransform2D(g)
		v := p.InputTransform2D(d)
		s := make([]float64, p.T*p.T)
		for i := range s {
			s[i] = u[i] * v[i]
		}
		got := p.OutputTransform2D(s)
		want := corr2D(d, p.T, g, pc.r)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-7 {
				t.Fatalf("F(%d,%d): Y[%d] = %v, want %v", pc.m, pc.r, i, got[i], want[i])
			}
		}
	}
}

// TestKron2D checks each Kronecker operator against the direct sandwich
// transform it replaces: applying the operator to a flattened tile must
// reproduce the oracle's t×t (or m×m) result on every F(m,r) in
// planCases, a superset of the primitive library's tiles.
func TestKron2D(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	apply := func(op []float64, rows int, x []float64) []float64 {
		y := make([]float64, rows)
		matVec(op, rows, len(x), x, y)
		return y
	}
	check := func(name string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d outputs, want %d", name, len(got), len(want))
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
				t.Fatalf("%s: [%d] = %v, want %v", name, i, got[i], want[i])
			}
		}
	}
	for _, pc := range planCases {
		p := NewPlan(pc.m, pc.r)
		tt := p.T * p.T
		g := make([]float32, pc.r*pc.r)
		gf := make([]float64, len(g))
		for i := range g {
			g[i] = rng.Float32()*2 - 1
			gf[i] = float64(g[i])
		}
		d := make([]float64, tt)
		for i := range d {
			d[i] = rng.Float64()*2 - 1
		}
		name := fmt.Sprintf("F(%d,%d)", pc.m, pc.r)
		check(name+" G⊗G", apply(p.KernelKron2D(), tt, gf), p.KernelTransform2D(g))
		check(name+" Bᵀ⊗Bᵀ", apply(p.InputKron2D(), tt, d), p.InputTransform2D(d))
		check(name+" Aᵀ⊗Aᵀ", apply(p.OutputKron2D(), pc.m*pc.m, d), p.OutputTransform2D(d))
	}
}

// TestF23KnownShape checks the canonical F(2,3) dimensions and that the
// multiplication count matches the theory: 4 multiplies instead of 6.
func TestF23KnownShape(t *testing.T) {
	p := NewPlan(2, 3)
	if p.T != 4 || len(p.AT) != 8 || len(p.G) != 12 || len(p.BT) != 16 {
		t.Fatalf("F(2,3) dims wrong: T=%d AT=%d G=%d BT=%d", p.T, len(p.AT), len(p.G), len(p.BT))
	}
	direct, wino := p.Flops1D()
	if direct != 6 || wino != 4 {
		t.Errorf("F(2,3) flops = (%d,%d), want (6,4)", direct, wino)
	}
}

// TestLinearity: property test — the whole Winograd pipeline is linear in
// the input tile.
func TestLinearity(t *testing.T) {
	p := NewPlan(2, 3)
	g := []float32{0.5, -1, 0.25}
	u := p.KernelTransform1D(g)
	run := func(d []float64) []float64 {
		v := p.InputTransform1D(d)
		s := make([]float64, p.T)
		for i := range s {
			s[i] = u[i] * v[i]
		}
		return p.OutputTransform1D(s)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		da := make([]float64, 4)
		db := make([]float64, 4)
		for i := range da {
			da[i] = rng.Float64()*20 - 10
			db[i] = rng.Float64()*20 - 10
		}
		sum := make([]float64, 4)
		for i := range sum {
			sum[i] = da[i] + db[i]
		}
		ya, yb, ys := run(da), run(db), run(sum)
		for i := range ys {
			if math.Abs(ys[i]-(ya[i]+yb[i])) > 1e-6*(1+math.Abs(ys[i])) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Values: nil}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestNewPlanPanics(t *testing.T) {
	for _, bad := range [][2]int{{0, 3}, {2, 0}, {9, 9}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPlan(%d,%d) should panic", bad[0], bad[1])
				}
			}()
			NewPlan(bad[0], bad[1])
		}()
	}
}

func TestTransformArgChecks(t *testing.T) {
	p := NewPlan(2, 3)
	for _, f := range []func(){
		func() { p.KernelTransform1D(make([]float32, 2)) },
		func() { p.InputTransform1D(make([]float64, 3)) },
		func() { p.OutputTransform1D(make([]float64, 5)) },
		func() { p.KernelTransform2D(make([]float32, 8)) },
		func() { p.InputTransform2D(make([]float64, 15)) },
		func() { p.OutputTransform2D(make([]float64, 15)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on wrong-size argument")
				}
			}()
			f()
		}()
	}
}
