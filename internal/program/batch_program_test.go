package program

import (
	"reflect"
	"strings"
	"testing"

	"pbqpdnn/internal/cost"
	"pbqpdnn/internal/dnn/models"
	"pbqpdnn/internal/selector"
)

func compileBatch(t *testing.T, name string, threads, batch int) *Program {
	t.Helper()
	g, err := models.Build(name)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := selector.Select(g, selector.Options{
		Prof: cost.NewModel(cost.IntelHaswell), Threads: threads})
	if err != nil {
		t.Fatal(err)
	}
	p, err := CompileBatch(plan, batch)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCompileBatchSlotsConvOutputs: batch 1 is a batch of one. Every
// bucket plans convolution outputs into slots (conv.RunInto writes into
// provided destinations at every N), the network output stays a fresh
// allocation, and a batch-agnostic plan compiles to the same per-image
// memory plan — slots, donors, capacities — at N = 1 and N = 8, so the
// batch-8 peak is exactly 8× the batch-1 peak.
func TestCompileBatchSlotsConvOutputs(t *testing.T) {
	p1 := compileBatch(t, "googlenet", 4, 1)
	p8 := compileBatch(t, "googlenet", 4, 8)
	if p1.Batch != 1 || p8.Batch != 8 {
		t.Fatalf("batch fields %d/%d, want 1/8", p1.Batch, p8.Batch)
	}
	for _, p := range []*Program{p1, p8} {
		for i := range p.Instrs {
			ins := &p.Instrs[i]
			if ins.Op == OpConv && ins.Slot == NoSlot && i != p.Output {
				t.Errorf("batch-%d program left conv output %q dynamic", p.Batch, ins.Name)
			}
		}
		out := &p.Instrs[p.Output]
		if out.Slot != NoSlot || out.Donor >= 0 {
			t.Errorf("batch-%d program's output is not a fresh allocation", p.Batch)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("batch-%d program fails validation: %v", p.Batch, err)
		}
	}
	if len(p1.Instrs) != len(p8.Instrs) || !reflect.DeepEqual(p1.SlotCap, p8.SlotCap) {
		t.Fatalf("memory plans differ: %d/%d instructions, SlotCap %v vs %v",
			len(p1.Instrs), len(p8.Instrs), p1.SlotCap, p8.SlotCap)
	}
	for i := range p1.Instrs {
		a, b := &p1.Instrs[i], &p8.Instrs[i]
		if a.Name != b.Name || a.Slot != b.Slot || a.Donor != b.Donor {
			t.Errorf("instr %d: %s slot %d donor %d at N=1, %s slot %d donor %d at N=8",
				i, a.Name, a.Slot, a.Donor, b.Name, b.Slot, b.Donor)
		}
	}
	if p8.Stats.PeakBytes != 8*p1.Stats.PeakBytes {
		t.Errorf("PeakBytes %d at N=8, want 8 × %d", p8.Stats.PeakBytes, p1.Stats.PeakBytes)
	}
}

// TestBatchStatsScaleWithN pins the satellite fix: reported slot and
// peak bytes must describe the batch actually planned, not batch 1.
func TestBatchStatsScaleWithN(t *testing.T) {
	p8 := compileBatch(t, "alexnet", 4, 8)
	var slotSum int64
	for _, c := range p8.SlotCap {
		slotSum += int64(c) * 4
	}
	if want := slotSum * 8; p8.Stats.SlotBytes != want {
		t.Errorf("SlotBytes = %d, want %d (slot capacities × batch)", p8.Stats.SlotBytes, want)
	}
	if p8.Stats.Batch != 8 {
		t.Errorf("Stats.Batch = %d, want 8", p8.Stats.Batch)
	}
	if p8.Stats.PeakBytes != p8.Stats.SlotBytes+p8.Stats.DynamicPeakBytes {
		t.Error("PeakBytes is not SlotBytes + DynamicPeakBytes")
	}
	// NaiveBytes for N images is N × the per-image sum.
	p1 := compileBatch(t, "alexnet", 4, 1)
	if p8.Stats.NaiveBytes != 8*p1.Stats.NaiveBytes {
		t.Errorf("NaiveBytes = %d, want %d", p8.Stats.NaiveBytes, 8*p1.Stats.NaiveBytes)
	}
}

// TestBatchSourceReportsBatchScaledBytes: the listing must carry the
// batch size and batch-scaled memory plan.
func TestBatchSourceReportsBatchScaledBytes(t *testing.T) {
	p := compileBatch(t, "alexnet", 4, 4)
	src := p.Source()
	for _, want := range []string{"batch 4", "/image]", "for batch 4"} {
		if !strings.Contains(src, want) {
			t.Errorf("batched listing missing %q", want)
		}
	}
	p1 := compileBatch(t, "alexnet", 4, 1)
	if !strings.Contains(p1.Source(), "batch 1") {
		t.Error("batch-1 listing missing batch annotation")
	}
}

// TestCompileBatchRejectsBadN: zero and negative batch sizes fail.
func TestCompileBatchRejectsBadN(t *testing.T) {
	g, err := models.Build("alexnet")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := selector.Select(g, selector.Options{Prof: cost.NewModel(cost.IntelHaswell)})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, -3} {
		if _, err := CompileBatch(plan, n); err == nil {
			t.Errorf("CompileBatch accepted batch %d", n)
		}
	}
}

// TestCompileBatchBucketPlans: a plan selected for one batch bucket
// compiles at exactly that bucket and is rejected at any other, while a
// batch-agnostic (Select) plan compiles at every bucket — the seam that
// keeps a serving registry from executing bucket B against bucket A's
// optimization.
func TestCompileBatchBucketPlans(t *testing.T) {
	g, err := models.Build("micronet")
	if err != nil {
		t.Fatal(err)
	}
	opts := selector.Options{Prof: cost.NewModel(cost.IntelHaswell), Threads: 1}
	b4, err := selector.SelectBatch(g, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CompileBatch(b4, 4); err != nil {
		t.Errorf("batch-4 plan at bucket 4: %v", err)
	}
	for _, n := range []int{1, 2, 8} {
		if _, err := CompileBatch(b4, n); err == nil {
			t.Errorf("batch-4 plan compiled at bucket %d; CheckBatch should reject the mismatch", n)
		}
	}
	agnostic, err := selector.Select(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 4, 8} {
		if _, err := CompileBatch(agnostic, n); err != nil {
			t.Errorf("batch-agnostic plan at bucket %d: %v", n, err)
		}
	}
}
