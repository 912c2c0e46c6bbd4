package verify

import (
	"testing"

	"idemproc/internal/codegen"
	"idemproc/internal/core"
	"idemproc/internal/isa"
	"idemproc/internal/verify/verifytest"
	"idemproc/internal/workloads"
)

func compile(t *testing.T, w workloads.Workload, mo codegen.ModuleOptions) *codegen.Program {
	t.Helper()
	p, _, err := codegen.CompileModuleOpts(w.Module(), "main", w.MemWords, mo)
	if err != nil {
		t.Fatalf("compile %s: %v", w.Name, err)
	}
	return p
}

// TestWorkloadMatrixClean is the no-false-positive gate: correct
// compiler output over the full workload × ModuleOptions matrix must
// verify with zero violations.
func TestWorkloadMatrixClean(t *testing.T) {
	for _, m := range verifytest.Matrix() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			t.Parallel()
			for _, w := range workloads.All() {
				p := compile(t, w, m.MO)
				rep := Verify(p)
				if rep.Skipped {
					t.Errorf("%s/%s: unexpectedly skipped (marks=%d)", m.Name, w.Name, p.Marks)
					continue
				}
				if !rep.OK() {
					t.Errorf("%s/%s: %s", m.Name, w.Name, rep.Render(p))
				}
				if rep.Regions < 2 {
					t.Errorf("%s/%s: only %d regions analyzed", m.Name, w.Name, rep.Regions)
				}
			}
		})
	}
}

// TestNonIdempotentSkipped: markless programs have no contract to check.
func TestNonIdempotentSkipped(t *testing.T) {
	w, _ := workloads.ByName("bzip2")
	p := compile(t, w, codegen.ModuleOptions{Idempotent: false, Core: core.DefaultOptions()})
	rep := Verify(p)
	if !rep.Skipped || !rep.OK() {
		t.Fatalf("non-idempotent build should be skipped+ok, got %s", rep.Summary())
	}
}

// TestRelaxedAllocDifferential: with the §4.4 allocation constraint
// disabled, live-in registers are redefined in-region and the verifier
// must notice on at least one workload — the ablation doubles as a
// sensitivity check that the analysis is not vacuous.
func TestRelaxedAllocDifferential(t *testing.T) {
	found := 0
	for _, w := range workloads.All() {
		mo := codegen.ModuleOptions{Idempotent: true, Core: core.DefaultOptions(), RelaxedAlloc: true}
		p := compile(t, w, mo)
		rep := Verify(p)
		if !rep.OK() {
			found++
		}
	}
	if found == 0 {
		t.Fatalf("relaxed-alloc ablation produced zero violations across all workloads; verifier is blind to register clobbers")
	}
	t.Logf("relaxed-alloc: %d/%d workloads rejected", found, len(workloads.All()))
}

// mutate returns a copy of p with its instruction stream edited by fn.
func mutate(p *codegen.Program, fn func(instrs []isa.Instr) bool) (*codegen.Program, bool) {
	q := *p
	q.Instrs = append([]isa.Instr(nil), p.Instrs...)
	ok := fn(q.Instrs)
	return &q, ok
}

func hasKind(rep *Report, k Kind) bool {
	for _, v := range rep.Violations {
		if v.Kind == k {
			return true
		}
	}
	return false
}

// dropMarkMutant drops each MARK in turn, workload by workload, and
// returns the first mutant the verifier rejects (nil if none is).
func dropMarkMutant(t *testing.T) *codegen.Program {
	for _, w := range workloads.All() {
		p := compile(t, w, codegen.ModuleOptions{Idempotent: true, Core: core.DefaultOptions()})
		for pc, in := range p.Instrs {
			if in.Op != isa.MARK {
				continue
			}
			q, _ := mutate(p, func(instrs []isa.Instr) bool {
				instrs[pc] = isa.Instr{Op: isa.NOP}
				return true
			})
			q.Marks--
			if q.Marks == 0 {
				continue
			}
			if rep := Verify(q); !rep.OK() {
				return q
			}
		}
	}
	return nil
}

// TestMutationDropMark: removing a MARK merges two regions; the merged
// region must expose a clobber somewhere across the suite.
func TestMutationDropMark(t *testing.T) {
	if dropMarkMutant(t) == nil {
		t.Fatal("no dropped-MARK mutation was rejected on any workload")
	}
}

// retargetSpillMutant finds a region with a spill load [sp,#a] followed
// by a spill store [sp,#b], b != a, with no intervening MARK or branch,
// and retargets the store to slot a; it returns the first such mutant
// the verifier flags as a memory clobber (nil if none is).
func retargetSpillMutant(t *testing.T) *codegen.Program {
	for _, w := range workloads.All() {
		p := compile(t, w, codegen.ModuleOptions{Idempotent: true, Core: core.DefaultOptions()})
		for pc, in := range p.Instrs {
			if in.Op != isa.LDR || in.Rs1 != isa.SP {
				continue
			}
			for j := pc + 1; j < len(p.Instrs) && p.Instrs[j].Op != isa.MARK &&
				p.Instrs[j].Op != isa.RET && p.Instrs[j].Op != isa.CALL &&
				p.Instrs[j].Op != isa.B && p.Instrs[j].Op != isa.CBZ &&
				p.Instrs[j].Op != isa.CBNZ; j++ {
				sj := p.Instrs[j]
				if sj.Op == isa.STR && sj.Rs1 == isa.SP && sj.Imm != in.Imm {
					q, _ := mutate(p, func(instrs []isa.Instr) bool {
						instrs[j].Imm = in.Imm
						return true
					})
					if rep := Verify(q); hasKind(rep, KindClobberMem) {
						return q
					}
				}
			}
		}
	}
	return nil
}

// TestMutationRetargetSpillStore: pointing a spill store at a slot that
// was read earlier in the region clobbers live-in state.
func TestMutationRetargetSpillStore(t *testing.T) {
	if retargetSpillMutant(t) == nil {
		t.Fatal("no retargeted spill store was rejected")
	}
}

// badBranchMutant retargets bzip2's first unconditional branch outside
// the program (nil if it has none).
func badBranchMutant(t *testing.T) *codegen.Program {
	w, _ := workloads.ByName("bzip2")
	p := compile(t, w, codegen.ModuleOptions{Idempotent: true, Core: core.DefaultOptions()})
	q, ok := mutate(p, func(instrs []isa.Instr) bool {
		for i := range instrs {
			if instrs[i].Op == isa.B {
				instrs[i].Imm = int64(len(instrs)) + 99
				return true
			}
		}
		return false
	})
	if !ok {
		return nil
	}
	return q
}

// TestMutationBadBranch: a branch retargeted outside the program is
// structural damage, not a crash.
func TestMutationBadBranch(t *testing.T) {
	q := badBranchMutant(t)
	if q == nil {
		t.Skip("no unconditional branch to retarget")
	}
	rep := Verify(q)
	if !hasKind(rep, KindBadBranch) {
		t.Fatalf("retargeted branch not flagged: %s", rep.Summary())
	}
}

// frameJoinProgram stores two different frame pointers into the same two
// stack slots on either side of a branch, then loads each joined slot
// and writes through it after reading through it. The join gives each
// slot a fresh stack base, and each write-after-read is a violation
// whose location names one of them.
func frameJoinProgram() *codegen.Program {
	r0, r1, r2, r3 := isa.Reg(0), isa.Reg(1), isa.Reg(2), isa.Reg(3)
	arm := func(frame int64) []isa.Instr {
		return []isa.Instr{
			{Op: isa.ADDI, Rd: isa.SP, Rs1: isa.SP, Imm: frame},
			{Op: isa.STR, Rs1: r1, Rs2: isa.SP, Imm: -1},
			{Op: isa.STR, Rs1: r1, Rs2: isa.SP, Imm: -2},
		}
	}
	instrs := []isa.Instr{
		{Op: isa.MOV, Rd: r1, Rs1: isa.SP},
		{Op: isa.CBZ, Rs1: r0, Imm: 6},
	}
	instrs = append(instrs, arm(-8)...)
	instrs = append(instrs, isa.Instr{Op: isa.B, Imm: 9})
	instrs = append(instrs, arm(-16)...)
	for _, slot := range []int64{-1, -2} {
		instrs = append(instrs,
			isa.Instr{Op: isa.LDR, Rd: r2, Rs1: r1, Imm: slot},
			isa.Instr{Op: isa.LDR, Rd: r3, Rs1: r2},
			isa.Instr{Op: isa.STR, Rs1: r2, Rs2: r0})
	}
	instrs = append(instrs, isa.Instr{Op: isa.HALT}, isa.Instr{Op: isa.MARK}, isa.Instr{Op: isa.HALT})
	return &codegen.Program{Instrs: instrs, Marks: 1}
}

// TestRenderDeterministic: symbol ids feed violation locations, so the
// report text is only reproducible if the analysis allocates them in a
// fixed order. The joined-frame program and every mutation program must
// render byte-identically across repeated runs.
func TestRenderDeterministic(t *testing.T) {
	progs := map[string]*codegen.Program{
		"frame-join":           frameJoinProgram(),
		"drop-mark":            dropMarkMutant(t),
		"retarget-spill-store": retargetSpillMutant(t),
		"bad-branch":           badBranchMutant(t),
	}
	for _, w := range workloads.All() {
		p := compile(t, w, codegen.ModuleOptions{Idempotent: true, Core: core.DefaultOptions(), RelaxedAlloc: true})
		progs["relaxed-alloc/"+w.Name] = p
	}
	for name, p := range progs {
		if p == nil {
			t.Fatalf("%s: no mutant", name)
		}
		want := Verify(p).Render(p)
		for i := 1; i < 20; i++ {
			if got := Verify(p).Render(p); got != want {
				t.Fatalf("%s: run %d rendered differently:\n%s\nvs first run:\n%s", name, i, got, want)
			}
		}
	}
}
