package verify

// Mutation tests: corrupt valid compiled programs in ways
// Program.Validate is known to tolerate, and assert the independent
// verifier rejects every class. Each test documents the Validate gap it
// exploits; if a future Validate learns a check and starts rejecting
// the mutant, the test still passes (the candidate is skipped), but the
// class must produce at least one Validate-clean mutant somewhere in
// the scanned configurations or the test fails loudly — that keeps the
// suite honest about what the verifier alone is catching.

import (
	"testing"

	"pbqpdnn/internal/cost"
	"pbqpdnn/internal/dnn/models"
	"pbqpdnn/internal/program"
	"pbqpdnn/internal/selector"
)

// relink rebuilds NumDeps and Succs from Args — the tests' own copy of
// the compiler's link pass, used after rewiring arguments.
func relink(p *program.Program) {
	for j := range p.Instrs {
		p.Instrs[j].NumDeps = 0
		p.Instrs[j].Succs = nil
	}
	for j := range p.Instrs {
		seen := map[int]bool{}
		for _, a := range p.Instrs[j].Args {
			if !seen[a] {
				seen[a] = true
				p.Instrs[j].NumDeps++
				p.Instrs[a].Succs = append(p.Instrs[a].Succs, j)
			}
		}
	}
}

// expectRejected asserts the mutant slips past Validate but not the
// verifier. It returns false (without failing) when Validate already
// catches it, so scans can move to the next candidate.
func expectRejected(t *testing.T, q *program.Program, desc string) bool {
	t.Helper()
	if err := q.Validate(); err != nil {
		return false
	}
	if err := Program(q); err == nil {
		t.Fatalf("%s: Validate and the verifier both accept the corrupted program", desc)
	} else {
		t.Logf("%s: rejected: %v", desc, err)
	}
	return true
}

// TestMutationFlipDonor flips a two-operand add's donor from the
// promoted first operand to the second. Validate only compares the
// donor's layout and physical length — both operands of an add match —
// so it accepts the flip; but AddInto's contract tolerates dst aliasing
// its FIRST input only, so the mutant would accumulate into a buffer it
// is still reading as the second operand. The verifier pins Donor to
// the promoted position.
func TestMutationFlipDonor(t *testing.T) {
	found := 0
	for _, model := range []string{"resnet-18", "smallnet"} {
		for _, batch := range []int{1, 3, 8} {
			// Unfused: the fusion pass folds residual adds into their
			// producing convolutions, leaving no add donee to corrupt.
			p := compileUnfused(t, model, "pbqp", batch)
			for j := range p.Instrs {
				ins := &p.Instrs[j]
				if ins.Op != program.OpAdd || len(ins.Args) != 2 || ins.Donor != 0 {
					continue
				}
				q := p.Clone()
				q.Instrs[j].Donor = 1
				if expectRejected(t, q, "flip-donor "+model) {
					found++
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("no flippable donor found in any scanned program; mutation class untested")
	}
}

// TestMutationDonorSlotAndAlias corrupts existing donations in two
// ways Validate tolerates: (a) an in-place instruction records a slot
// other than its donor's — Validate only checks the recorded slot's
// capacity, while the IR contract says a donee occupies exactly its
// donor's buffer; (b) a ReLU donee flips its Alias bit — Validate
// never reads Alias, but the engine would skip the kernel entirely and
// pass the un-rectified donor through as the "result".
func TestMutationDonorSlotAndAlias(t *testing.T) {
	foundSlot, foundAlias := 0, 0
	for _, model := range []string{"resnet-18", "alexnet", "smallnet", "micronet"} {
		for _, batch := range []int{1, 3, 8} {
			// Unfused: in-place relus — the alias-flip targets — fuse
			// into their producers otherwise.
			p := compileUnfused(t, model, "pbqp", batch)
			for j := range p.Instrs {
				ins := &p.Instrs[j]
				if ins.Donor != 0 {
					continue
				}
				donorSlot := p.Instrs[ins.Args[0]].Slot
				for s := range p.SlotCap {
					if s == donorSlot || p.SlotCap[s] < ins.DataLen() {
						continue
					}
					q := p.Clone()
					q.Instrs[j].Slot = s
					if expectRejected(t, q, "donor-slot-lie "+model) {
						foundSlot++
					}
					break
				}
				if ins.Op != program.OpDropout {
					q := p.Clone()
					q.Instrs[j].Alias = true
					if expectRejected(t, q, "alias-flip "+model) {
						foundAlias++
					}
				}
			}
		}
	}
	if foundSlot == 0 {
		t.Fatal("no donee with an alternative slot found; slot-lie mutation untested")
	}
	if foundAlias == 0 {
		t.Fatal("no non-dropout donee found; alias-flip mutation untested")
	}
}

// TestMutationShrinkSlot shrinks a slot together with its strictly
// largest tenant's declared channel count, keeping the capacity at or
// above every other tenant, so each tenant still "fits" and Validate's
// local capacity check passes — but the instruction no longer produces
// the layer's shape, and at run time the kernel would write past the
// shrunken buffer. The verifier re-derives shapes from the network.
func TestMutationShrinkSlot(t *testing.T) {
	found := 0
	for _, model := range []string{"micronet", "smallnet", "alexnet"} {
		for _, batch := range []int{1, 3, 8} {
			p := compileFor(t, model, "pbqp", batch)
			// The two largest tenant lengths of each slot.
			first, second := make([]int, len(p.SlotCap)), make([]int, len(p.SlotCap))
			for j := range p.Instrs {
				s, n := p.Instrs[j].Slot, p.Instrs[j].DataLen()
				switch {
				case s < 0:
				case n > first[s]:
					first[s], second[s] = n, first[s]
				case n > second[s]:
					second[s] = n
				}
			}
			for j := range p.Instrs {
				ins := &p.Instrs[j]
				if ins.Slot < 0 || ins.Donor >= 0 || ins.C < 2 || ins.DataLen() != first[ins.Slot] ||
					first[ins.Slot] == second[ins.Slot] {
					continue
				}
				q := p.Clone()
				m := &q.Instrs[j]
				for m.C > 1 {
					m.C--
					if m.DataLen() < ins.DataLen() {
						break
					}
				}
				if m.DataLen() == ins.DataLen() {
					continue
				}
				q.SlotCap[m.Slot] = max(m.DataLen(), second[m.Slot])
				if expectRejected(t, q, "shrink-slot "+model) {
					found++
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("no shrinkable slot found in any scanned program; mutation class untested")
	}
	t.Logf("%d shrink-slot mutants rejected", found)
}

// TestMutationRewireArg redirects an instruction's argument to an
// earlier value of identical shape and layout and relinks the
// dependency metadata consistently. Every local invariant Validate
// checks still holds — args are in order, layouts agree, the links are
// self-consistent — but the program now computes a different function
// than the plan; the verifier re-derives arguments from the network's
// predecessor lists and rejects.
func TestMutationRewireArg(t *testing.T) {
	found := 0
scan:
	for _, model := range []string{"vgg-b", "smallnet", "micronet"} {
		for _, batch := range []int{1, 3} {
			p := compileFor(t, model, "pbqp", batch)
			for j := range p.Instrs {
				ins := &p.Instrs[j]
				for k, a := range ins.Args {
					av := &p.Instrs[a]
					for alt := 0; alt < j; alt++ {
						if alt == a {
							continue
						}
						cand := &p.Instrs[alt]
						if cand.C != av.C || cand.H != av.H || cand.W != av.W || cand.Layout != av.Layout {
							continue
						}
						dup := false
						for _, other := range ins.Args {
							if other == alt {
								dup = true
								break
							}
						}
						if dup {
							continue
						}
						q := p.Clone()
						q.Instrs[j].Args[k] = alt
						relink(q)
						if expectRejected(t, q, "rewire-arg "+model) {
							found++
							continue scan
						}
					}
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("no rewirable argument found in any scanned program; mutation class untested")
	}
}

// TestMutationMisScaledBatch re-declares a compiled program's batch
// size. Validate has no notion of plans selected for a batch bucket;
// the verifier re-derives the plan/batch bucket agreement. (Re-declaring
// a batch-agnostic program's batch is no corruption: its stream and
// per-image memory plan are the same at every N, which
// program.TestCompileBatchSlotsConvOutputs pins.)
func TestMutationMisScaledBatch(t *testing.T) {
	// A batch-aware plan executed at the wrong bucket: the program's
	// structure is batch-agnostic, but the plan's costs are not.
	net, err := models.Build("micronet")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := selector.SelectBatch(net, 3, selector.Options{Prof: cost.NewModel(cost.IntelHaswell), Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	pb, err := program.CompileBatch(plan, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := pb.Clone()
	q.Batch = 8
	if !expectRejected(t, q, "bucket 3→8") {
		t.Fatal("Validate caught the bucket mismatch; mutation class untested")
	}
}
