package cost

import (
	"time"

	"pbqpdnn/internal/conv"
	"pbqpdnn/internal/gemm"
	"pbqpdnn/internal/tensor"
)

// Measure is the wall-clock profiler: it executes the real Go
// implementation of each primitive on random tensors of the layer's
// shape and takes the best of Reps runs — the literal analogue of the
// paper's layerwise profiling step, which exploits the observation that
// DNN layer runtime depends on input dimensions, not values (§2.2).
// Batched costs come from wall-clocking the real batched entry points
// (conv.RunInto on an N-image tensor.Batch), so the serialized
// table prices exactly what the compiled batched engine executes.
type Measure struct {
	// Reps is the number of timed repetitions (best-of). Values < 1
	// mean 1.
	Reps int
	// Threads caps the goroutine count handed to primitives. It is the
	// default thread budget when a call site passes threads < 1, and an
	// upper bound otherwise; zero means no cap (call sites decide).
	Threads int
}

// NewMeasure returns a measurement profiler taking best-of-reps timings.
func NewMeasure(reps int) *Measure { return &Measure{Reps: reps} }

func (me *Measure) reps() int {
	if me.Reps < 1 {
		return 1
	}
	return me.Reps
}

// threadBudget resolves a call site's thread argument against the
// profiler's Threads cap: threads < 1 defaults to the cap (or 1 when
// none is set), and explicit requests are clamped to it.
func (me *Measure) threadBudget(threads int) int {
	if threads < 1 {
		if me.Threads > 0 {
			return me.Threads
		}
		return 1
	}
	if me.Threads > 0 && threads > me.Threads {
		return me.Threads
	}
	return threads
}

// bestOf times fn reps times and returns the minimum in seconds.
func (me *Measure) bestOf(fn func()) float64 {
	best := 0.0
	for r := 0; r < me.reps(); r++ {
		start := time.Now()
		fn()
		el := time.Since(start).Seconds()
		if r == 0 || el < best {
			best = el
		}
	}
	return best
}

// measureKernel fabricates the weight tensor for a scenario.
func measureKernel(s conv.Scenario) *conv.Kernel {
	k := conv.NewKernel(s.M, s.C, s.K)
	if s.Sparsity > 0 {
		k.FillSparse(2, s.Sparsity)
	} else {
		k.FillRandom(2)
	}
	return k
}

// Primitive times a real execution of p on scenario s.
func (me *Measure) Primitive(p *conv.Primitive, s conv.Scenario, threads int) float64 {
	threads = me.threadBudget(threads)
	in := tensor.New(p.In, s.C, s.H, s.W)
	in.FillRandom(1)
	k := measureKernel(s)
	return me.bestOf(func() { p.Run(in, k, s, threads) })
}

// PrimitiveBatch implements BatchProfiler by wall-clocking the real
// batched entry point: one conv.RunInto call over an n-image batch
// slab, writing into a pre-allocated destination batch — the exact
// call the compiled engine issues per conv instruction. Primitives
// without a batched implementation go through RunInto's
// per-image fallback, so their measured cost honestly reflects the
// executor's fallback path too.
func (me *Measure) PrimitiveBatch(p *conv.Primitive, s conv.Scenario, threads, n int) float64 {
	if n <= 1 {
		return me.Primitive(p, s, threads)
	}
	// Scenarios carrying the legacy Batch parameter are priced linearly
	// (see Model.PrimitiveBatch): the batched slabs here are sized by
	// the n argument alone, so honoring both would double-count.
	if s.Batch > 1 {
		return float64(n) * me.Primitive(p, s, threads)
	}
	threads = me.threadBudget(threads)
	in := tensor.NewBatch(p.In, n, s.C, s.H, s.W)
	for i := 0; i < n; i++ {
		in.Image(i).FillRandom(int64(i + 1))
	}
	k := measureKernel(s)
	dst := tensor.NewBatch(p.Out, n, s.M, s.OutH(), s.OutW())
	return me.bestOf(func() { conv.RunInto(p, dst, in, k, s, threads, gemm.EpiNone, nil) })
}

// Transform times a real layout transform on a c×h×w tensor.
func (me *Measure) Transform(tr tensor.Transform, c, h, w int) float64 {
	src := tensor.New(tr.From, c, h, w)
	src.FillRandom(3)
	return me.bestOf(func() { tr.Run(src) })
}

// TransformBatch implements BatchProfiler by timing the conversion of
// an n-image batch the way the engine executes it: one per-image
// ConvertInto per slab, striding over the batch, with no intermediate
// allocations.
func (me *Measure) TransformBatch(tr tensor.Transform, c, h, w, n int) float64 {
	if n <= 1 {
		return me.Transform(tr, c, h, w)
	}
	src := tensor.NewBatch(tr.From, n, c, h, w)
	for i := 0; i < n; i++ {
		src.Image(i).FillRandom(int64(i + 3))
	}
	dst := tensor.NewBatch(tr.To, n, c, h, w)
	return me.bestOf(func() {
		for i := 0; i < n; i++ {
			tensor.ConvertInto(dst.Image(i), src.Image(i))
		}
	})
}
