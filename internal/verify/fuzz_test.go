package verify

import (
	"math"
	"testing"

	"pbqpdnn/internal/dnn/models"
	"pbqpdnn/internal/exec"
	"pbqpdnn/internal/gemm"
	"pbqpdnn/internal/program"
	"pbqpdnn/internal/tensor"
)

// fuzzBase is one compiled program plus everything needed to execute
// its mutants: the weights and a deterministic input set.
type fuzzBase struct {
	name   string
	prog   *program.Program
	w      *exec.Weights
	inputs []*tensor.Tensor
}

func fuzzBases(t testing.TB) []*fuzzBase {
	var bases []*fuzzBase
	for _, cfg := range []struct {
		model string
		batch int
	}{
		{"micronet", 1},
		{"micronet", 3},
		{"smallnet", 3},
		// Residual adds fuse into conv+add+relu instructions here, so
		// the fusion fields are in the mutation surface.
		{"resnet-18", 3},
	} {
		p := compileFor(t, cfg.model, "pbqp", cfg.batch)
		net, err := models.Build(cfg.model)
		if err != nil {
			t.Fatal(err)
		}
		b := &fuzzBase{name: cfg.model, prog: p, w: exec.NewWeights(net)}
		il := net.Layers[0]
		for i := 0; i < cfg.batch; i++ {
			in := tensor.New(tensor.CHW, il.OutC, il.OutH, il.OutW)
			in.FillRandom(int64(42 + i))
			b.inputs = append(b.inputs, in)
		}
		bases = append(bases, b)
	}
	// The crafted absorbed-conversion program: the bases above carry
	// no populated CvtIn (their PBQP plans select layout-consistent
	// chains), so conversion-absorption mutants get a live target.
	cp := cvtInProgram(t, 3)
	cnet := cp.Plan.Net
	cb := &fuzzBase{name: "cvtin", prog: cp, w: exec.NewWeights(cnet)}
	il := cnet.Layers[0]
	for i := 0; i < 3; i++ {
		in := tensor.New(tensor.CHW, il.OutC, il.OutH, il.OutW)
		in.FillRandom(int64(99 + i))
		cb.inputs = append(cb.inputs, in)
	}
	bases = append(bases, cb)
	return bases
}

// applyMutations decodes the fuzz input as a sequence of 4-byte
// (opcode, a, b, c) corruption ops over the cloned program. Every op is
// total — arithmetic is reduced modulo the live sizes — so arbitrary
// bytes always decode to some mutation.
func applyMutations(q *program.Program, data []byte) {
	n := len(q.Instrs)
	for len(data) >= 4 {
		op, a, b, c := data[0], int(data[1]), int(data[2]), int(data[3])
		data = data[4:]
		ins := &q.Instrs[a%n]
		switch op % 10 {
		case 0: // move or unslot a value
			ins.Slot = b%(len(q.SlotCap)+1) - 1
		case 1: // flip donor / alias bits
			ins.Donor = b%3 - 1
			ins.Alias = c%2 == 1
		case 2: // resize a slot
			if len(q.SlotCap) > 0 {
				s := a % len(q.SlotCap)
				q.SlotCap[s] = q.SlotCap[s] * (b + 1) / 16
			}
		case 3: // re-declare the batch
			q.Batch = 1 + b%8
		case 4: // rewire an argument
			if len(ins.Args) > 0 && ins.ID > 0 {
				ins.Args[b%len(ins.Args)] = c % ins.ID
			}
		case 5: // lie about the produced shape
			ins.C = 1 + b%64
		case 6: // corrupt scheduler metadata
			if c%2 == 0 {
				ins.NumDeps = b % 4
			} else if len(ins.Succs) > 0 {
				ins.Succs = ins.Succs[:len(ins.Succs)-1]
			}
		case 7: // re-declare the layout
			ins.Layout = tensor.Layout(b % 8)
		case 8: // corrupt the fusion epilogue enum
			ins.Epi = gemm.Epilogue(b % 6)
		case 9: // drop a fused layer or the absorbed conversion
			if len(ins.EpiLayers) > 0 && c%2 == 0 {
				ins.EpiLayers = ins.EpiLayers[:len(ins.EpiLayers)-1]
			} else {
				ins.CvtIn = nil
			}
		}
	}
}

// FuzzVerifyProgram is the verifier's soundness fuzz: no mutated
// program may be accepted by the verifier yet fault the engine. A
// mutant the verifier rejects is fine (that is the verifier working); a
// mutant it accepts must construct an engine, execute the micronet/
// smallnet inputs without panicking or erroring, and produce finite
// outputs.
func FuzzVerifyProgram(f *testing.F) {
	bases := fuzzBases(f)

	f.Add([]byte{})
	f.Add([]byte{0, 6, 2, 0})             // unslot a value
	f.Add([]byte{1, 5, 1, 0})             // fabricate a donor
	f.Add([]byte{2, 3, 1, 0})             // shrink a slot
	f.Add([]byte{3, 0, 4, 0})             // re-declare the batch
	f.Add([]byte{4, 9, 0, 3})             // rewire an argument
	f.Add([]byte{5, 7, 9, 0})             // lie about a shape
	f.Add([]byte{6, 2, 1, 0})             // corrupt a dep count
	f.Add([]byte{7, 4, 3, 0})             // re-declare a layout
	f.Add([]byte{8, 3, 2, 0})             // corrupt an epilogue enum
	f.Add([]byte{9, 2, 0, 0})             // drop a fused layer
	f.Add([]byte{9, 1, 0, 1})             // drop an absorbed conversion
	f.Add([]byte{3, 0, 2, 0, 0, 1, 0, 0}) // compound: rebatch then unslot

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, base := range bases {
			q := base.prog.Clone()
			applyMutations(q, data)
			if err := Program(q); err != nil {
				continue // rejected: the verifier did its job
			}
			runAccepted(t, base, q, data)
		}
	})
}

// runAccepted executes a verifier-accepted mutant and fails the fuzz on
// any engine fault: construction error, run error, panic, or non-finite
// output.
func runAccepted(t *testing.T, base *fuzzBase, q *program.Program, data []byte) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: accepted mutant %v panicked the engine: %v", base.name, data, r)
		}
	}()
	e, err := exec.NewEngineFromProgram(q, base.w)
	if err != nil {
		t.Fatalf("%s: accepted mutant %v rejected by engine construction: %v", base.name, data, err)
	}
	inputs := base.inputs
	// The mutant may have legally re-declared the batch (a batched
	// program's structure is N-agnostic for N > 1); feed it exactly its
	// declared batch.
	for len(inputs) < q.Batch {
		inputs = append(inputs, base.inputs[len(inputs)%len(base.inputs)])
	}
	inputs = inputs[:q.Batch]
	outs, err := e.RunBatch(inputs)
	if err != nil {
		t.Fatalf("%s: accepted mutant %v faulted the engine: %v", base.name, data, err)
	}
	if len(outs) != len(inputs) {
		t.Fatalf("%s: accepted mutant %v produced %d outputs for %d inputs", base.name, data, len(outs), len(inputs))
	}
	for i, out := range outs {
		for _, v := range out.Data {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatalf("%s: accepted mutant %v produced non-finite output in image %d", base.name, data, i)
			}
		}
	}
}
