package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit. BENCHMARK.json at
// the repository root lists exactly these names (TestBenchmarkJSON
// holds the two in step).
type metricDef struct {
	Name string
	Unit string
}

// endToEnd lists the metrics a user of the system sees. Every untraced
// run prints all of them; README.md gives each one's definition per
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"goodput_rps", "1/s"},
	{"capacity_rps", "1/s"},
	{"images_per_s", "1/s"},
	{"batch1_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// buckets are the batch buckets the per-layer metrics are keyed by
// (".bN"): the smallest and the largest bucket every workload compiles.
var buckets = []int{1, 8}

// opGroups are the instruction groups exec.op_ms_per_image splits an
// engine's time into: convolutions by algorithm family, then the
// layer operators by opcode.
var opGroups = []string{
	"conv.im2", "conv.kn2", "conv.winograd", "conv.direct", "conv.fft",
	"maxpool", "avgpool", "lrn", "concat", "convert", "fc", "softmax", "relu", "add", "input",
}

// convFamilies are the convolution families the roofline metrics
// report (sum2d, the textbook baseline, is folded into direct).
var convFamilies = []string{"im2", "kn2", "winograd", "direct", "fft"}

// perLayer lists the traced run's metrics. Every traced run prints all
// of them; a metric that does not apply to a workload (a serving
// phase on the in-process workload, calibration on an analytic-plan
// workload) reads 0.
func perLayer() []metricDef {
	defs := []metricDef{
		{"serve.queue_wait_ms.p50", "ms"},
		{"serve.batch_assembly_ms.p50", "ms"},
		{"serve.engine_ms.p50", "ms"},
		{"serve.respond_ms.p50", "ms"},
		{"serve.handler_self_ms.mean", "ms"},
		{"serve.transport_ms.mean", "ms"},
		{"serve.mean_batch", "images"},
		{"serve.rejected", "count"},
		{"serve.expired", "count"},
		{"loadgen.late_ms.max", "ms"},
		{"failed_share", "share"},
	}
	for _, b := range []int{1, 2, 4, 8} {
		defs = append(defs, metricDef{fmt.Sprintf("exec.ns_per_image.b%d", b), "ns"})
	}
	for _, b := range buckets {
		defs = append(defs,
			metricDef{fmt.Sprintf("exec.allocs_per_image.b%d", b), "count"},
			metricDef{fmt.Sprintf("exec.alloc_mb_per_image.b%d", b), "MB"})
	}
	for _, op := range opGroups {
		for _, b := range buckets {
			defs = append(defs, metricDef{fmt.Sprintf("exec.op_ms_per_image.%s.b%d", op, b), "ms"})
		}
	}
	for _, b := range buckets {
		defs = append(defs,
			metricDef{fmt.Sprintf("exec.coverage.b%d", b), "share"},
			metricDef{fmt.Sprintf("exec.critical_path_share.b%d", b), "share"},
			metricDef{fmt.Sprintf("exec.cost_model_error.b%d", b), "ln_ratio"},
			metricDef{fmt.Sprintf("exec.unpriced_share.b%d", b), "share"})
	}
	defs = append(defs, metricDef{"gemm.packed_gflops", "GFLOP/s"})
	for _, f := range convFamilies {
		for _, b := range buckets {
			defs = append(defs,
				metricDef{fmt.Sprintf("conv.gflops.%s.b%d", f, b), "GFLOP/s"},
				metricDef{fmt.Sprintf("conv.peak_share.%s.b%d", f, b), "share"})
		}
	}
	for _, b := range buckets {
		defs = append(defs,
			metricDef{fmt.Sprintf("selector.select_ms.b%d", b), "ms"},
			metricDef{fmt.Sprintf("pbqp.solve_ms.b%d", b), "ms"},
			metricDef{fmt.Sprintf("selector.predicted_ms_per_image.b%d", b), "ms"},
			metricDef{fmt.Sprintf("program.compile_ms.b%d", b), "ms"},
			metricDef{fmt.Sprintf("program.instructions.b%d", b), "count"},
			metricDef{fmt.Sprintf("program.peak_mb.b%d", b), "MB"})
	}
	return append(defs,
		metricDef{"cost.calibrate_s", "s"},
		metricDef{"trace.overhead_share", "share"})
}

// Value is one reported metric value.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last output line.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// report fills a Result's metrics from the values a run measured:
// every definition in defs appears, in its unit, and a value the run
// did not measure reads 0. Values of the other list are dropped (a
// traced run also derives end-to-end figures); a measured name in
// neither list is a bug in the workload code.
func report(defs []metricDef, got map[string]float64) (map[string]Value, error) {
	known := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
		known[d.Name] = true
	}
	for name := range got {
		if !known[name] {
			return nil, fmt.Errorf("perfbench: measured %q, which is not a reported metric", name)
		}
	}
	out := make(map[string]Value, len(defs))
	for _, d := range defs {
		out[d.Name] = Value{Value: got[d.Name], Unit: d.Unit}
	}
	return out, nil
}

// minBeyond is the percentile-support rule: a percentile is reported
// only where at least this many samples lie beyond it.
const minBeyond = 10

// supportedQuantile returns the quantile the benchmark reports when q
// is asked of n samples: q itself when at least minBeyond samples lie
// beyond it, else the highest quantile that has that support. The
// median is the floor: a sample too small to support even the median
// reports the median for every percentile.
func supportedQuantile(q float64, n int) float64 {
	if n <= 0 {
		return 0.5
	}
	hi := float64(n-minBeyond) / float64(n)
	if q > hi {
		q = hi
	}
	return math.Max(q, 0.5)
}

// quantileMS reads quantile q of the samples in milliseconds by the
// nearest-rank method, after the support rule has capped q.
func quantileMS(samples []time.Duration, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	q = supportedQuantile(q, len(s))
	rank := int(math.Ceil(q * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return ms(s[rank-1])
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
