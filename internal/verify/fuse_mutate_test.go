package verify

// Fusion mutation tests: one surgical illegal fusion per legality rule
// the verifier recomputes from graph + plan alone. Each corruption is
// one the compiler can never emit — the point is that a corrupted or
// adversarial program claiming an unsound fusion is caught by the
// independent checker, whatever Program.Validate thinks of it.

import (
	"testing"

	"pbqpdnn/internal/conv"
	"pbqpdnn/internal/cost"
	"pbqpdnn/internal/dnn"
	"pbqpdnn/internal/gemm"
	"pbqpdnn/internal/program"
	"pbqpdnn/internal/selector"
	"pbqpdnn/internal/tensor"
)

// expectVerifierRejects asserts the independent verifier rejects the
// mutant (Validate's verdict is logged but not required either way —
// fusion legality is the verifier's contract).
func expectVerifierRejects(t *testing.T, q *program.Program, desc string) {
	t.Helper()
	err := Program(q)
	if err == nil {
		t.Fatalf("%s: the verifier accepts the corrupted fusion", desc)
	}
	if verr := q.Validate(); verr != nil {
		t.Logf("%s: rejected: %v (Validate also catches: %v)", desc, err, verr)
	} else {
		t.Logf("%s: rejected: %v (Validate-clean)", desc, err)
	}
}

// chainNet is two fusable conv+relu links in a row, ending in a pool so
// neither relu is the network output.
func chainNet() *dnn.Graph {
	b, x := dnn.NewBuilder("chain", 3, 12, 12)
	x = b.Conv(x, "c1", 8, 3, 1, 1)
	x = b.ReLU(x, "r1")
	x = b.Conv(x, "c2", 8, 3, 1, 1)
	x = b.ReLU(x, "r2")
	b.MaxPool(x, "tail", 2, 2, 0)
	return b.Graph()
}

func compileNet(t *testing.T, net *dnn.Graph, batch int) *program.Program {
	t.Helper()
	plan, err := selector.SelectBatch(net, batch, selector.Options{
		Prof: cost.NewModel(cost.IntelHaswell), Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	p, err := program.CompileBatch(plan, batch)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func layerByName(t *testing.T, net *dnn.Graph, name string) *dnn.Layer {
	t.Helper()
	for _, l := range net.Layers {
		if l.Name == name {
			return l
		}
	}
	t.Fatalf("no layer %q", name)
	return nil
}

// TestMutationFusionWrongConsumer: swap the fused relus of two
// conv+relu links. Each instruction still carries a relu of the right
// kind with consistent InstrOf bookkeeping, but the grafted relu is not
// its producer's graph successor — the single-consumer rule, recomputed
// from the graph, must reject both directions.
func TestMutationFusionWrongConsumer(t *testing.T) {
	p := compileNet(t, chainNet(), 3)
	net := p.Plan.Net
	r1, r2 := layerByName(t, net, "r1"), layerByName(t, net, "r2")
	j1, j2 := p.InstrOf[r1.ID], p.InstrOf[r2.ID]
	if j1 == j2 || len(p.Instrs[j1].EpiLayers) != 1 || len(p.Instrs[j2].EpiLayers) != 1 {
		t.Fatalf("chain net did not fuse both conv+relu links")
	}
	q := p.Clone()
	q.Instrs[j1].EpiLayers = []*dnn.Layer{r2}
	q.Instrs[j2].EpiLayers = []*dnn.Layer{r1}
	q.InstrOf[r1.ID], q.InstrOf[r2.ID] = j2, j1
	expectVerifierRejects(t, q, "fusion-wrong-consumer")
}

// TestMutationFusionLayoutMismatch: re-declare the fused relu's
// selected layout. The fused edge now hides a layout change the
// epilogue cannot perform — the layout-pair rule must reject.
func TestMutationFusionLayoutMismatch(t *testing.T) {
	// Fresh compile: the corruption edits the shared plan, so no Clone.
	p := compileNet(t, chainNet(), 3)
	r1 := layerByName(t, p.Plan.Net, "r1")
	was := p.Plan.Layouts[r1.ID]
	p.Plan.Layouts[r1.ID] = (was + 1) % 8
	expectVerifierRejects(t, p, "fusion-layout-mismatch")
}

// TestMutationFusionHiddenConversion: claim a legalized chain on the
// fused producer→epilogue edge. A conversion can never hide inside a
// fused instruction — the conversion-free-edge rule must reject.
func TestMutationFusionHiddenConversion(t *testing.T) {
	p := compileNet(t, chainNet(), 3)
	net := p.Plan.Net
	c1, r1 := layerByName(t, net, "c1"), layerByName(t, net, "r1")
	tr := tensor.DirectTransforms()[0]
	p.Plan.Conversions[[2]int{c1.ID, r1.ID}] = []tensor.Transform{tr}
	expectVerifierRejects(t, p, "fusion-hidden-conversion")
}

// TestMutationFusionResidualSlotConflict: move a fused conv+add+relu
// instruction into its residual operand's slot. The epilogue reads the
// residual while the GEMM is writing the very same buffer — the
// adversarial-interleaving slot discipline must reject.
func TestMutationFusionResidualSlotConflict(t *testing.T) {
	p := compileFor(t, "resnet-18", "pbqp", 3)
	found := false
	for j := range p.Instrs {
		ins := &p.Instrs[j]
		if ins.Epi != gemm.EpiAdd && ins.Epi != gemm.EpiAddReLU {
			continue
		}
		res := &p.Instrs[ins.Args[1]]
		if ins.Slot < 0 || res.Slot < 0 || ins.Slot == res.Slot {
			continue
		}
		q := p.Clone()
		q.Instrs[j].Slot = res.Slot
		expectVerifierRejects(t, q, "fusion-residual-slot-conflict")
		found = true
		break
	}
	if !found {
		t.Fatal("no slotted fused residual instruction found; mutation class untested")
	}
}

// cvtInProgram compiles a crafted plan whose convolution absorbs its
// input conversion: an all-HWC selection with the network input pinned
// to CHW and the conv pinned to an im2row primitive, whose patch pack
// gathers CHW directly. PBQP plans of the real models almost never
// absorb (TestAbsorptionCensus), so absorbed-conversion mutation
// coverage comes from this small crafted plan.
func cvtInProgram(t testing.TB, batch int) *program.Program {
	t.Helper()
	b, x := dnn.NewBuilder("cvtin", 3, 12, 12)
	x = b.Conv(x, "c1", 8, 3, 1, 1)
	x = b.ReLU(x, "r1")
	b.MaxPool(x, "tail", 2, 2, 0)
	net := b.Graph()
	plan, err := selector.LocalOptimal(net, tensor.HWC, selector.Options{
		Prof: cost.NewModel(cost.IntelHaswell), Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	var prim *conv.Primitive
	for _, p := range conv.Library() {
		if p.Name == "im2row-pack" {
			prim = p
		}
	}
	if prim == nil || !prim.CanAbsorbInput(tensor.CHW) {
		t.Fatal("im2row-pack missing or cannot absorb CHW input")
	}
	convID := net.ConvLayers()[0]
	if !prim.Supports(net.Layers[convID].Conv) {
		t.Fatalf("im2row-pack does not support %s", net.Layers[convID].Conv)
	}
	plan.Primitives[convID] = prim
	plan.Layouts[convID] = prim.Out
	inID := net.Layers[0].ID
	plan.Layouts[inID] = tensor.CHW
	var chw2hwc *tensor.Transform
	for _, d := range tensor.DirectTransforms() {
		if d.From == tensor.CHW && d.To == tensor.HWC {
			d := d
			chw2hwc = &d
		}
	}
	if chw2hwc == nil {
		t.Fatal("no direct CHW→HWC transform in the library")
	}
	plan.Conversions[[2]int{inID, convID}] = []tensor.Transform{*chw2hwc}
	p, err := program.CompileBatch(plan, batch)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestVerifyAcceptsAbsorbedConversion: the crafted absorbed-conversion
// program passes the independent verifier (CompileBatch already ran it
// via DebugVerify; this re-checks the returned value and pins the
// absorption actually happened).
func TestVerifyAcceptsAbsorbedConversion(t *testing.T) {
	p := cvtInProgram(t, 3)
	if p.Stats.FusedConversions != 1 {
		t.Fatalf("crafted plan absorbed %d conversions, want 1", p.Stats.FusedConversions)
	}
	var fused *program.Instr
	for j := range p.Instrs {
		if len(p.Instrs[j].CvtIn) > 0 {
			fused = &p.Instrs[j]
		}
	}
	if fused == nil {
		t.Fatal("no instruction carries the absorbed conversion")
	}
	if fused.CvtIn[0].From != tensor.CHW || fused.CvtIn[0].To != tensor.HWC {
		t.Fatalf("absorbed chain is %s→%s, want CHW→HWC", fused.CvtIn[0].From, fused.CvtIn[0].To)
	}
	if err := Program(p); err != nil {
		t.Fatalf("verifier rejects the absorbed-conversion program: %v", err)
	}
}

// TestMutationFusionUnabsorbablePair: re-declare the absorbed chain —
// in both the plan and the instruction, so they agree — as a layout
// pair no patch pack can gather (CHW4→HWC). The absorption-capability
// rule, recomputed against the selected primitive, must reject.
func TestMutationFusionUnabsorbablePair(t *testing.T) {
	p := cvtInProgram(t, 3)
	bogus := tensor.Transform{Name: "chw4-hwc", From: tensor.CHW4, To: tensor.HWC}
	for j := range p.Instrs {
		if len(p.Instrs[j].CvtIn) > 0 {
			p.Instrs[j].CvtIn[0] = bogus
		}
	}
	inID := p.Plan.Net.Layers[0].ID
	convID := p.Plan.Net.ConvLayers()[0]
	p.Plan.Conversions[[2]int{inID, convID}] = []tensor.Transform{bogus}
	expectVerifierRejects(t, p, "fusion-unabsorbable-pair")
}

// TestMutationFusionChainDisagrees: the absorbed chain must BE the
// plan's chain for the edge; an instruction absorbing a different
// transform than the plan legalized is rejected.
func TestMutationFusionChainDisagrees(t *testing.T) {
	p := cvtInProgram(t, 3)
	for j := range p.Instrs {
		if len(p.Instrs[j].CvtIn) > 0 {
			p.Instrs[j].CvtIn[0].Name = "not-the-plan-chain"
		}
	}
	expectVerifierRejects(t, p, "fusion-chain-disagrees")
}
