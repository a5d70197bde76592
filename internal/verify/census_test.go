package verify

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"pbqpdnn/internal/cost"
	"pbqpdnn/internal/dnn/models"
	"pbqpdnn/internal/exec"
	"pbqpdnn/internal/program"
	"pbqpdnn/internal/selector"
	"pbqpdnn/internal/tensor"
)

// TestAbsorptionCensus counts the input conversions the fusion pass
// absorbs into convolution packs (Instr.CvtIn) over every evaluation
// and demo model × batch bucket {1,2,4,8,16} × selection strategy ×
// analytic platform. PBQP plans are selected per bucket, as the
// serving registry selects them; the other strategies are
// batch-agnostic. It pins two facts: PBQP plans almost never absorb
// (their selections are layout-consistent wherever a pack could
// gather), and the census total is positive — shipped strategies
// exercise the mechanism, so it earns its code. One absorbing plan then
// runs at buckets 1 and 2 against the reference executor.
func TestAbsorptionCensus(t *testing.T) {
	names := append(append([]string{}, models.Names()...), models.DemoNames()...)
	byStrategy := map[string]int{}
	programs, total := 0, 0
	var pbqpAbsorbing []string
	var absorbing *selector.Plan
	for _, m := range cost.Machines() {
		opts := selector.Options{Prof: cost.NewModel(m), Threads: 2}
		for _, model := range names {
			net, err := models.Build(model)
			if err != nil {
				t.Fatal(err)
			}
			for strategy, fn := range strategyFns() {
				plan, err := fn(net, opts)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", m.Name, model, strategy, err)
				}
				for _, n := range []int{1, 2, 4, 8, 16} {
					if strategy == "pbqp" {
						if plan, err = selector.SelectBatch(net, n, opts); err != nil {
							t.Fatalf("%s/%s/pbqp@%d: %v", m.Name, model, n, err)
						}
					}
					p, err := program.CompileBatch(plan, n)
					if err != nil {
						t.Fatalf("%s/%s/%s@%d: %v", m.Name, model, strategy, n, err)
					}
					programs++
					total += p.Stats.FusedConversions
					byStrategy[strategy] += p.Stats.FusedConversions
					if strategy == "pbqp" && p.Stats.FusedConversions > 0 {
						pbqpAbsorbing = append(pbqpAbsorbing, fmt.Sprintf("%s/%s@%d", m.Name, model, n))
					}
					if absorbing == nil && model == "smallnet" && strategy == "no-edge-cost" && p.Stats.FusedConversions > 0 {
						absorbing = plan
					}
				}
			}
		}
	}
	strategies := make([]string, 0, len(byStrategy))
	for s := range byStrategy {
		strategies = append(strategies, s)
	}
	sort.Strings(strategies)
	for _, s := range strategies {
		t.Logf("%-13s %4d absorbed conversions", s, byStrategy[s])
	}
	t.Logf("%d absorbed conversions in %d compiled programs", total, programs)
	// Exactly one PBQP plan absorbs: the Cortex-A57 VGG-C bucket-1 plan
	// legalizes one edge with a single-step conversion into an im2
	// convolution, which batch 1 can absorb like every other bucket.
	if got := strings.Join(pbqpAbsorbing, " "); byStrategy["pbqp"] != 1 || got != "arm-cortex-a57/vgg-c@1" {
		t.Errorf("PBQP plans absorbed %d conversions in [%s], want 1 in [arm-cortex-a57/vgg-c@1]",
			byStrategy["pbqp"], got)
	}
	if total == 0 {
		t.Fatal("no compiled program absorbs a conversion; the absorption mechanism has no shipped use")
	}
	if absorbing == nil {
		t.Fatal("no smallnet no-edge-cost plan absorbs a conversion")
	}

	w := exec.NewWeights(absorbing.Net)
	il := absorbing.Net.Layers[0]
	inputs := make([]*tensor.Tensor, 2)
	want := make([]*tensor.Tensor, len(inputs))
	for i := range inputs {
		inputs[i] = tensor.New(tensor.CHW, il.OutC, il.OutH, il.OutW)
		inputs[i].FillRandom(int64(61 + i))
		ref, err := exec.Reference(absorbing.Net, inputs[i], w)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ref
	}
	for _, n := range []int{1, 2} {
		eng, err := exec.NewEngineBatch(absorbing, w, n)
		if err != nil {
			t.Fatal(err)
		}
		if eng.Program().Stats.FusedConversions == 0 {
			t.Fatalf("bucket %d: the absorbing plan compiled without an absorbed conversion", n)
		}
		outs, err := eng.RunBatch(inputs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range outs {
			if !tensor.WithinRel(outs[i], want[i], 1e-4) {
				t.Errorf("bucket %d image %d: diverges from reference by %g",
					n, i, tensor.MaxRelDiff(outs[i], want[i]))
			}
		}
	}
}
