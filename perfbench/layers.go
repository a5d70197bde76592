package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"pbqpdnn/internal/conv"
	"pbqpdnn/internal/cost"
	"pbqpdnn/internal/dnn"
	"pbqpdnn/internal/exec"
	"pbqpdnn/internal/gemm"
	"pbqpdnn/internal/program"
	"pbqpdnn/internal/selector"
	"pbqpdnn/internal/tensor"
)

// opGroup names the exec.op_ms_per_image group an instruction's time
// is charged to ("" for aliases, which run no kernel).
func opGroup(ins *program.Instr) string {
	switch ins.Op {
	case program.OpConv:
		if ins.Prim.Family == conv.FamilySum2D {
			return "conv.direct"
		}
		return "conv." + ins.Prim.Family.String()
	case program.OpDropout:
		return ""
	}
	return ins.Op.String()
}

// engineLayers adds one profiled bucket engine's per-layer metrics:
// time per image by op group, coverage, critical-path share, cost-model
// error, unpriced share and per-family achieved GFLOP/s, with its share
// of the peak: gemmGFLOPS (the single-thread packed-GEMM rate) times
// the engine's worker count. An engine that has sampled nothing adds
// nothing.
func engineLayers(got map[string]float64, eng *exec.Engine, gemmGFLOPS float64) {
	t := eng.LayerTable()
	if t == nil || t.SampledImages == 0 || t.SampledChunks == 0 {
		return
	}
	prog := eng.Program()
	sfx := fmt.Sprintf(".b%d", t.Batch)
	images := float64(t.SampledImages)

	groupNS := map[string]int64{}
	famNS := map[string]int64{}
	famFlops := map[string]float64{}
	var errs []float64
	var unpricedNS int64
	for i, row := range t.Rows {
		ins := &prog.Instrs[i]
		g := opGroup(ins)
		if g == "" {
			continue
		}
		groupNS[g] += row.ObservedNS
		if ins.Op == program.OpConv {
			f := g[len("conv."):]
			famNS[f] += row.ObservedNS
			famFlops[f] += ins.Layer.Conv.Flops() * images
		}
		switch {
		case row.PredictedNSPerImage == 0:
			unpricedNS += row.ObservedNS
		case row.ObservedNSPerImage > 0:
			errs = append(errs, math.Abs(math.Log(row.ObservedNSPerImage/row.PredictedNSPerImage)))
		}
	}
	for g, ns := range groupNS {
		got["exec.op_ms_per_image."+g+sfx] = float64(ns) / images / 1e6
	}
	peak := gemmGFLOPS * float64(t.Threads)
	for f, ns := range famNS {
		if ns == 0 {
			continue
		}
		gf := famFlops[f] / float64(ns)
		got["conv.gflops."+f+sfx] = gf
		if peak > 0 {
			got["conv.peak_share."+f+sfx] = gf / peak
		}
	}
	got["exec.coverage"+sfx] = t.Coverage
	got["exec.cost_model_error"+sfx] = median(errs)
	if t.ObservedTotalNS > 0 {
		got["exec.unpriced_share"+sfx] = float64(unpricedNS) / float64(t.ObservedTotalNS)
	}
	wall := float64(t.EngineWallNS) / float64(t.SampledChunks)
	weights := make([]float64, len(t.Rows))
	for i, row := range t.Rows {
		weights[i] = float64(row.ObservedNS) / float64(t.SampledChunks)
	}
	got["exec.critical_path_share"+sfx] = criticalPath(prog, weights) / wall
}

// criticalPath returns the heaviest dependency chain through the
// program's instructions, each weighted by its observed time: the part
// of the engine's wall time no amount of branch parallelism removes.
// Instructions are topologically ordered, so one forward pass suffices.
func criticalPath(prog *program.Program, weights []float64) float64 {
	finish := make([]float64, len(prog.Instrs))
	longest := 0.0
	for i := range prog.Instrs {
		start := 0.0
		for _, a := range prog.Instrs[i].Args {
			start = math.Max(start, finish[a])
		}
		finish[i] = start + weights[i]
		longest = math.Max(longest, finish[i])
	}
	return longest
}

// packedGFLOPS is the roofline anchor: single-thread gemm.Packed at
// 512³, best of k.
func packedGFLOPS(tr *tracer, k int) float64 {
	const n = 512
	a := make([]float32, n*n)
	b := make([]float32, n*n)
	c := make([]float32, n*n)
	for i := range a {
		a[i] = float32(i%7) / 7
		b[i] = float32(i%5) / 5
	}
	best := time.Duration(math.MaxInt64)
	for range k {
		best = min(best, tr.timed("gemm.Packed", 0, func() { gemm.Packed(n, n, n, a, b, c) }))
	}
	return 2 * n * n * n / float64(best.Nanoseconds())
}

// planLayers times selection and compilation of every reported bucket
// against prof (best of three each) and records the plan's predicted
// cost and the program's counts.
func planLayers(got map[string]float64, tr *tracer, net *dnn.Graph, prof cost.Profiler) error {
	opts := selector.Options{Prof: prof, Threads: runtime.GOMAXPROCS(0)}
	for _, b := range buckets {
		sfx := fmt.Sprintf(".b%d", b)
		var plan *selector.Plan
		var prog *program.Program
		var err error
		sel, comp := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
		for range 3 {
			sel = min(sel, tr.timed("selector.SelectBatch", 0, func() { plan, err = selector.SelectBatch(net, b, opts) }))
			if err != nil {
				return fmt.Errorf("perfbench: selecting %s at batch %d: %w", net.Name, b, err)
			}
			comp = min(comp, tr.timed("program.CompileBatch", 0, func() { prog, err = program.CompileBatch(plan, b) }))
			if err != nil {
				return fmt.Errorf("perfbench: compiling %s at batch %d: %w", net.Name, b, err)
			}
		}
		got["selector.select_ms"+sfx] = ms(sel)
		got["pbqp.solve_ms"+sfx] = ms(plan.SolveTime)
		got["selector.predicted_ms_per_image"+sfx] = plan.CostPerImage() * 1e3
		got["program.compile_ms"+sfx] = ms(comp)
		got["program.instructions"+sfx] = float64(prog.Stats.Instructions)
		got["program.peak_mb"+sfx] = float64(prog.Stats.PeakBytes) / 1e6
	}
	return nil
}

// allocLayers records heap allocations per image around one RunBatch.
func allocLayers(got map[string]float64, eng *exec.Engine, ins []*tensor.Tensor) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err := eng.RunBatch(ins)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	sfx := fmt.Sprintf(".b%d", len(ins))
	n := float64(len(ins))
	got["exec.allocs_per_image"+sfx] = float64(m1.Mallocs-m0.Mallocs) / n
	got["exec.alloc_mb_per_image"+sfx] = float64(m1.TotalAlloc-m0.TotalAlloc) / n / 1e6
	return nil
}
