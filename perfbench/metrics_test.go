package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

func TestSupportedQuantile(t *testing.T) {
	for _, c := range []struct {
		q    float64
		n    int
		want float64
	}{
		{0.99, 2000, 0.99}, // 20 samples beyond p99
		{0.99, 1000, 0.99}, // exactly 10 beyond
		{0.99, 999, 989.0 / 999},
		{0.99, 100, 0.90},
		{0.90, 100, 0.90},
		{0.90, 60, 50.0 / 60},
		{0.50, 20, 0.50},
		{0.90, 12, 0.50}, // too few for any tail: the median
		{0.99, 1, 0.50},
		{0.99, 0, 0.50},
	} {
		if got := supportedQuantile(c.q, c.n); got != c.want {
			t.Errorf("supportedQuantile(%v, %d) = %v, want %v", c.q, c.n, got, c.want)
		}
	}
}

// TestQuantileLeavesTenBeyond checks the rule on the reported value
// itself: at least ten samples lie beyond every reported tail.
func TestQuantileLeavesTenBeyond(t *testing.T) {
	for _, n := range []int{20, 37, 100, 500, 999, 1000, 2500} {
		samples := make([]time.Duration, n)
		for i := range samples {
			// Descending, so the sort inside quantileMS matters.
			samples[i] = time.Duration(n-i) * time.Millisecond
		}
		for _, q := range []float64{0.5, 0.9, 0.99} {
			v := quantileMS(samples, q)
			beyond := 0
			for _, s := range samples {
				if ms(s) > v {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d q=%v: reported %v ms with %d samples beyond, want ≥ %d", n, q, v, beyond, minBeyond)
			}
			if q == 0.5 && v != float64((n+1)/2) {
				t.Errorf("n=%d: median %v, want %v", n, v, (n+1)/2)
			}
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json at the repository root in
// step with the metrics and workloads this program reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer())
}
