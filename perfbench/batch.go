package main

import (
	"fmt"
	"runtime"
	"time"

	"pbqpdnn/internal/cost"
	"pbqpdnn/internal/dnn"
	"pbqpdnn/internal/dnn/models"
	"pbqpdnn/internal/exec"
	"pbqpdnn/internal/selector"
	"pbqpdnn/internal/tensor"
)

// The in-process workload: GoogLeNet's analytic-Haswell plans compiled
// at bucket 1 and bucket batchN, with RunBatch called back to back,
// alternating one full batch and singlesPerBatch single images.
const (
	batchModel = "googlenet"
	batchN     = 8
	// batchLimit is the per-batch latency limit a batch must meet to
	// count toward goodput.
	batchLimit = 5 * time.Second
	// batchChecked of the batchN seeded images are compared against
	// exec.Reference.
	batchChecked = 1
	// An untraced run splits its window into batchSegments segments and
	// sets up batchSetUpsPerPoint times before each segment and after
	// the last (setup_s is the median): the host's speed wanders over
	// seconds, so set-ups spread over the run give a steadier median
	// than one burst at its start.
	batchSegments       = 4
	batchSetUpsPerPoint = 3
)

// engines are one set-up's bucket-1 and bucket-N engines.
type engines struct {
	net     *dnn.Graph
	w       *exec.Weights
	one, n  *exec.Engine
	onePlan *selector.Plan
	nPlan   *selector.Plan
}

// setUp builds the network and its weights, selects both buckets'
// plans and compiles their engines, recording a span per module call.
func setUp(tr *tracer, profile bool) (*engines, error) {
	net, err := models.Build(batchModel)
	if err != nil {
		return nil, err
	}
	w := exec.NewWeights(net)
	e := &engines{net: net, w: w}
	opts := selector.Options{Prof: cost.NewModel(cost.IntelHaswell), Threads: runtime.GOMAXPROCS(0)}
	for _, b := range []int{1, batchN} {
		var plan *selector.Plan
		tr.timed("selector.SelectBatch", 0, func() { plan, err = selector.SelectBatch(net, b, opts) })
		if err != nil {
			return nil, fmt.Errorf("perfbench: selecting %s at batch %d: %w", batchModel, b, err)
		}
		var eng *exec.Engine
		tr.timed("exec.NewEngineBatch", 0, func() { eng, err = exec.NewEngineBatch(plan, w, b) })
		if err != nil {
			return nil, fmt.Errorf("perfbench: compiling %s at batch %d: %w", batchModel, b, err)
		}
		if profile {
			eng.EnableProfiling(1)
		}
		if b == 1 {
			e.one, e.onePlan = eng, plan
		} else {
			e.n, e.nPlan = eng, plan
		}
	}
	return e, nil
}

func (e *engines) stamps() []PlanStamp {
	return []PlanStamp{stampPlan(e.onePlan, e.one.Program()), stampPlan(e.nPlan, e.n.Program())}
}

// batchRun is one timed call: which image set it ran, its wall time,
// its outputs and its error.
type batchRun struct {
	First int // index of the first image; a full batch starts at 0
	Wall  time.Duration
	Outs  []*tensor.Tensor
	Err   error
}

// singlesPerBatch is how many single-image calls follow each full
// batch. A single image takes about a fifth of a batch of 8 and varies
// more from call to call, so three of them per batch gives both
// medians about the same precision per second spent.
const singlesPerBatch = 3

// alternate calls RunBatch on the full batch, then on single images,
// until window has passed, and returns both series. Interleaving the
// two exposes them to the same host drift.
func (e *engines) alternate(tr *tracer, xs []*tensor.Tensor, window time.Duration) (full, single []batchRun) {
	end := time.Now().Add(window)
	for j := 0; time.Now().Before(end); {
		full = append(full, timedRun(tr, e.n, xs, 0))
		for range singlesPerBatch {
			single = append(single, timedRun(tr, e.one, xs[j:j+1], j))
			j = (j + 1) % len(xs)
		}
	}
	return full, single
}

func timedRun(tr *tracer, eng *exec.Engine, xs []*tensor.Tensor, first int) batchRun {
	br := batchRun{First: first}
	br.Wall = tr.timed("exec.Engine.RunBatch", 0, func() { br.Outs, br.Err = eng.RunBatch(xs) })
	return br
}

// timedSetUps sets up batchSetUpsPerPoint times, appending each
// set-up's wall time (s) and plan stamps, and returns the last set-up.
// It ends with a collection, so the timed calls that follow start from
// the same heap rather than from the garbage the set-ups left.
func timedSetUps(setups *[]float64, stamps *[][]PlanStamp) (*engines, error) {
	var e *engines
	for range batchSetUpsPerPoint {
		start := time.Now()
		var err error
		if e, err = setUp(nil, false); err != nil {
			return nil, err
		}
		*setups = append(*setups, time.Since(start).Seconds())
		*stamps = append(*stamps, e.stamps())
	}
	runtime.GC()
	return e, nil
}

// runBatch runs the in-process workload. The serving tier does no work
// here.
func runBatch(r *run) error {
	var e *engines
	var setups []float64
	var stamps [][]PlanStamp
	if r.tr == nil {
		var err error
		if e, err = timedSetUps(&setups, &stamps); err != nil {
			return err
		}
		r.prov.Plans = stamps[0]
	} else {
		var err error
		if e, err = setUp(r.tr, false); err != nil {
			return err
		}
		r.prov.Plans = e.stamps()
	}
	r.prov.Profiler = analyticProfiler
	in := e.net.Layers[0]
	imgs := makeImages(r.seed, batchN, in.OutC, in.OutH, in.OutW)
	xs := make([]*tensor.Tensor, len(imgs))
	for i, d := range imgs {
		xs[i] = tensor.NewWith(tensor.CHW, in.OutC, in.OutH, in.OutW, d)
	}

	warm := []batchRun{timedRun(nil, e.n, xs, 0), timedRun(nil, e.one, xs[:1], 0)}
	window := r.seconds
	var full, single []batchRun
	if r.tr == nil {
		// A segment ends after the call that crosses its deadline, so
		// each segment gets an equal share of what the earlier ones
		// left: the calls add up to the window plus one overshoot.
		var spent time.Duration
		for k := range batchSegments {
			if k > 0 {
				if _, err := timedSetUps(&setups, &stamps); err != nil {
					return err
				}
			}
			start := time.Now()
			f, s := e.alternate(nil, xs, (window-spent)/time.Duration(batchSegments-k))
			spent += time.Since(start)
			full, single = append(full, f...), append(single, s...)
		}
		if _, err := timedSetUps(&setups, &stamps); err != nil {
			return err
		}
		r.got["peak_rss_mb"] = peakRSSMB()
		r.got["setup_s"] = median(setups)
		r.check(checkRepeat(r.dir, r.prov, stamps))
	} else {
		// Half the window on untraced engines, half on engines that
		// profile every instruction; the images/s difference is the
		// tracing overhead.
		fullU, singleU := e.alternate(nil, xs, window/2)
		p, err := setUp(r.tr, true)
		if err != nil {
			return err
		}
		warm = append(warm, timedRun(nil, p.n, xs, 0), timedRun(nil, p.one, xs[:1], 0))
		full, single = p.alternate(r.tr, xs, window/2)
		r.got["trace.overhead_share"] = 1 - imagesPerSecond(full, batchN)/imagesPerSecond(fullU, batchN)
		r.got["exec.ns_per_image.b1"] = median(wallsMS(singleU)) * 1e6
		r.got[fmt.Sprintf("exec.ns_per_image.b%d", batchN)] = median(wallsMS(fullU)) * 1e6 / float64(batchN)
		full, single = append(fullU, full...), append(singleU, single...)

		peak := packedGFLOPS(r.tr, 5)
		r.got["gemm.packed_gflops"] = peak
		engineLayers(r.got, p.one, peak)
		engineLayers(r.got, p.n, peak)
		if err := allocLayers(r.got, e.one, xs[:1]); err != nil {
			return err
		}
		if err := allocLayers(r.got, e.n, xs); err != nil {
			return err
		}
		if err := planLayers(r.got, r.tr, e.net, cost.NewModel(cost.IntelHaswell)); err != nil {
			return err
		}
	}

	good, err := checkBatches(r, e, xs, warm, full, single)
	if err != nil {
		return err
	}
	ips := imagesPerSecond(full, batchN)
	r.got["images_per_s"] = ips
	r.got["capacity_rps"] = ips
	r.got["goodput_rps"] = ips * float64(good) / float64(len(full))
	r.got["batch1_ms"] = median(wallsMS(single))
	var walls []time.Duration
	for _, br := range full {
		walls = append(walls, br.Wall)
	}
	r.got["latency_p50_ms"] = quantileMS(walls, 0.50)
	r.note("%d batches of %d and %d single images; latency over %d batch samples: p50 %.1f ms, p90 %.1f ms",
		len(full), batchN, len(single), len(walls), r.got["latency_p50_ms"], quantileMS(walls, 0.90))
	return nil
}

// checkBatches compares every output against exec.Reference (for the
// seeded checked images) or the first full batch's output for the same
// image, counts every call toward attempted and failed, and returns
// how many timed full batches were correct and within the limit.
func checkBatches(r *run, e *engines, xs []*tensor.Tensor, warm, full, single []batchRun) (int, error) {
	want := make([]*tensor.Tensor, len(xs))
	for _, img := range rngFor(r.seed, "checked").Perm(len(xs))[:batchChecked] {
		var err error
		r.tr.timed("exec.Reference", 0, func() { want[img], err = exec.Reference(e.net, xs[img], e.w) })
		if err != nil {
			return 0, err
		}
	}
	wrong := func(br *batchRun) bool {
		if br.Err != nil {
			return true
		}
		for k, out := range br.Outs {
			img := br.First + k
			if want[img] == nil {
				want[img] = out
			} else if !tensor.WithinRel(out, want[img], 1e-4) {
				return true
			}
		}
		return false
	}
	count := func(br *batchRun) bool {
		r.attempted++
		if wrong(br) {
			r.failed++
			r.check(fmt.Errorf("perfbench: RunBatch of %d image(s) from image %d failed or returned a wrong output (err %v)", len(xs), br.First, br.Err))
			return false
		}
		return true
	}
	for i := range warm {
		count(&warm[i])
	}
	good := 0
	for i := range full {
		if count(&full[i]) && full[i].Wall <= batchLimit {
			good++
		}
	}
	for i := range single {
		count(&single[i])
	}
	if r.attempted > 0 {
		r.got["failed_share"] = float64(r.failed) / float64(r.attempted)
	}
	return good, nil
}

// imagesPerSecond is the batch size over the median full-batch time.
func imagesPerSecond(full []batchRun, batch int) float64 {
	return float64(batch) / (median(wallsMS(full)) / 1e3)
}

func wallsMS(runs []batchRun) []float64 {
	out := make([]float64, len(runs))
	for i, br := range runs {
		out[i] = ms(br.Wall)
	}
	return out
}
