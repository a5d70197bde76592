package program

import (
	"pbqpdnn/internal/dnn"
	"pbqpdnn/internal/gemm"
	"pbqpdnn/internal/tensor"
)

// fuseInstructions is the instruction-fusion pass. It runs on the raw
// emitted stream — after every layer and legalized conversion has its
// instruction, before linking and liveness — and rewrites two
// patterns:
//
//   - Epilogue fusion: an elementwise consumer (ReLU, or a residual
//     Add with exactly one convolution producer) whose producer has no
//     other consumer is folded into the producing conv/FC instruction
//     as a gemm.Epilogue, so the output slab is written exactly once.
//     A ReLU over an already-fused EpiAdd convolution upgrades it to
//     EpiAddReLU. FC instructions take EpiReLU only.
//
//   - Conversion absorption: a single-step legalized conversion whose
//     sole consumer is a convolution's data input is absorbed into the
//     convolution's patch-building pack (CvtIn) when the primitive's
//     layout-general packer can gather the source layout directly.
//
// The merged instruction takes the epilogue's stream position (both
// the convolution's input and the residual operand topologically
// precede the epilogue, so the stream stays ordered), keeps the
// convolution's Layer (its costed scenario), and takes the fused-away
// layer's Name — the value it produces is that layer's value. The
// producer's old position is tombstoned and the stream compacted.
//
// Legality is local and conservative: the producer must have exactly
// one consumer (its value is never observable elsewhere), and the
// producer, residual and epilogue must agree physically on layout and
// element count. Slot soundness needs no extra rule: liveness runs
// after fusion, the residual stays an Args entry of the merged
// instruction (so it stays live through it), and OpConv never donates,
// so the merged instruction cannot overwrite its residual's buffer.
func (p *Program) fuseInstructions() {
	dead := make([]bool, len(p.Instrs))
	for {
		uses, consumer := p.usage(dead)
		mutated := false
		for j := range p.Instrs {
			if dead[j] {
				continue
			}
			if p.tryFuseEpilogue(j, dead, uses) || p.tryAbsorbConversion(j, dead, uses, consumer) {
				mutated = true
				break
			}
		}
		if !mutated {
			break
		}
	}
	p.compact(dead)
}

// usage counts, over the live instructions, how many times each value
// is consumed; consumer[v] is the sole consuming instruction when
// uses[v] == 1, else -1.
func (p *Program) usage(dead []bool) (uses, consumer []int) {
	n := len(p.Instrs)
	uses = make([]int, n)
	consumer = make([]int, n)
	for v := range consumer {
		consumer[v] = -1
	}
	for j := range p.Instrs {
		if dead[j] {
			continue
		}
		for _, a := range p.Instrs[j].Args {
			uses[a]++
			if uses[a] == 1 {
				consumer[a] = j
			} else {
				consumer[a] = -1
			}
		}
	}
	return uses, consumer
}

// tryFuseEpilogue folds the elementwise instruction at j into its
// producing conv/FC instruction, placing the merged instruction at j.
func (p *Program) tryFuseEpilogue(j int, dead []bool, uses []int) bool {
	e := &p.Instrs[j]
	if j == p.Output {
		// The network output must stay a fresh caller-owned allocation
		// produced by its own instruction.
		return false
	}
	var c, r int // producer value, residual value (-1 when none)
	var epi gemm.Epilogue
	switch e.Op {
	case OpReLU:
		c, r = e.Args[0], -1
		if uses[c] != 1 {
			return false
		}
		ci := &p.Instrs[c]
		switch {
		case ci.Op == OpConv && ci.Epi == gemm.EpiNone:
			epi = gemm.EpiReLU
		case ci.Op == OpConv && ci.Epi == gemm.EpiAdd:
			epi = gemm.EpiAddReLU
		case ci.Op == OpFC && ci.Epi == gemm.EpiNone:
			epi = gemm.EpiReLU
		default:
			return false
		}
	case OpAdd:
		if len(e.Args) != 2 {
			return false
		}
		c, r = -1, -1
		for k, a := range e.Args {
			ai := &p.Instrs[a]
			if ai.Op == OpConv && ai.Epi == gemm.EpiNone && uses[a] == 1 && c < 0 {
				c = a
				r = e.Args[1-k]
			}
		}
		if c < 0 {
			return false
		}
		epi = gemm.EpiAdd
	default:
		return false
	}
	ci := &p.Instrs[c]
	// Physical agreement: the merged instruction writes e's value into
	// ci's output geometry, and the residual is read slab-for-slab.
	if ci.Layout != e.Layout || ci.DataLen() != e.DataLen() {
		return false
	}
	if r >= 0 {
		if ri := &p.Instrs[r]; ri.Layout != e.Layout || ri.DataLen() != e.DataLen() {
			return false
		}
	}
	merged := *ci
	merged.ID = j
	merged.Name = e.Name
	merged.Epi = epi
	merged.EpiLayers = append(append([]*dnn.Layer(nil), ci.EpiLayers...), e.Layer)
	merged.Args = append([]int(nil), ci.Args...)
	if r >= 0 {
		merged.Args = []int{ci.Args[0], r}
	}
	p.Instrs[j] = merged
	dead[c] = true
	return true
}

// tryAbsorbConversion absorbs the single-step conversion at j into its
// sole consumer's convolution pack.
func (p *Program) tryAbsorbConversion(j int, dead []bool, uses, consumer []int) bool {
	v := &p.Instrs[j]
	if v.Op != OpConvert || len(v.Chain) != 1 {
		return false
	}
	if uses[j] != 1 || consumer[j] < 0 {
		return false
	}
	ki := &p.Instrs[consumer[j]]
	// Input side only: the residual operand of a fused EpiAdd is read
	// slab-for-slab by the epilogue, not gathered by the packer.
	if ki.Op != OpConv || len(ki.CvtIn) > 0 || len(ki.Args) == 0 || ki.Args[0] != j {
		return false
	}
	t := v.Chain[0]
	if t.To != ki.Prim.In || !ki.Prim.CanAbsorbInput(t.From) {
		return false
	}
	ki.CvtIn = []tensor.Transform{t}
	ki.Args[0] = v.Args[0]
	dead[j] = true
	return true
}

// compact removes tombstoned instructions, renumbers ids and argument
// references, and rebuilds the layer→instruction map (fused-away
// layers map to the instruction that carries them).
func (p *Program) compact(dead []bool) {
	remap := make([]int, len(p.Instrs))
	live := 0
	for i := range p.Instrs {
		if dead[i] {
			remap[i] = -1
			continue
		}
		remap[i] = live
		live++
	}
	out := make([]Instr, 0, live)
	for i := range p.Instrs {
		if dead[i] {
			continue
		}
		ins := p.Instrs[i]
		ins.ID = remap[i]
		for k, a := range ins.Args {
			ins.Args[k] = remap[a]
		}
		out = append(out, ins)
	}
	p.Instrs = out
	p.Output = remap[p.Output]
	for i := range p.Instrs {
		ins := &p.Instrs[i]
		if ins.Op == OpConvert {
			continue
		}
		p.InstrOf[ins.Layer.ID] = i
		for _, fl := range ins.EpiLayers {
			p.InstrOf[fl.ID] = i
		}
	}
}
