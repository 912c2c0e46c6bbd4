package machine

import (
	"math"
	"sync"

	"idemproc/internal/codegen"
	"idemproc/internal/isa"
)

// This file implements the one-time predecode pass over a linked
// codegen.Program. The interpreter's hot loop never touches isa.Instr:
// every instruction is resolved once into a dense decoded record with
// operand bank indices, pipeline source/destination slots, latency and a
// top-level dispatch kind all precomputed, following the predecode /
// flat-state interpreter design of wazero. Programs are immutable after
// Link (see the codegen.Program immutability contract), so the decoded
// form is memoized per Program and shared by every Machine — including
// concurrent experiment workers — without synchronization beyond the
// cache lookup.

// dKind is the top-level dispatch class of a decoded instruction.
type dKind uint8

const (
	dNop dKind = iota
	dALU       // register-writing ALU/compare/move/convert ops
	dLoad
	dStore
	dJump
	dCondBr
	dCall
	dRet
	dHalt
	dMark
	dCheck
	dMaj
	dShadow // redundant DMR/TMR copy: timing-only
)

// decoded is one predecoded instruction. All register fields are unified
// indices into the 48-entry register file (isa.Reg is already flat);
// psrc0/psrc1/pdst additionally carry the 48×3 pipeline bank offset for
// shadow copies, so pipeline accounting is pure array indexing.
type decoded struct {
	imm  int64  // branch target / memory offset
	cval uint64 // precomputed constant (MOVI value, FMOVI float bits)
	lat  int64  // result latency in cycles

	kind dKind
	op   isa.Op
	rd   uint8 // unified destination index
	rs1  uint8 // unified source indices (0 when absent — reads r0 harmlessly)
	rs2  uint8

	// Pipeline model precomputation.
	nsrc         uint8  // number of pipeline source operands (0..2)
	psrc0, psrc1 uint16 // ready[] indices (unified index + 48*shadow bank)
	pdst         uint16 // ready[] index of the result (valid iff pipeWrites)

	meta       bool // recovery instrumentation: outside the fault sphere
	writesRd   bool // functionally writes Regs[rd] (fault-injection target iff !meta)
	pipeWrites bool // pipeline tracks a result latency
	isMem      bool
	isBranch   bool
	condNeg    bool // CBNZ (branch if != 0)
	predTaken  bool // static predictor: backward branches predicted taken
}

// Code is the predecoded form of one Program, shared read-only by every
// Machine executing it.
type Code struct {
	p   *codegen.Program
	ops []decoded
}

// Program returns the linked program this code was decoded from.
func (c *Code) Program() *codegen.Program { return c.p }

// codeCache memoizes predecoded programs by Program identity. Programs
// are immutable and bounded per process (each distinct compile produces
// one), so pointer keying is sound and the cache stays small; holding
// the Program alive also keeps its Code entry meaningful.
var codeCache sync.Map // *codegen.Program -> *Code

// Predecode returns the decoded form of p, computing it on first request
// and serving the shared memoized Code afterwards. internal/buildcache
// calls this at compile time so experiment workers find the decoded
// program alongside the cached compile and never pay the pass on the
// simulation path.
func Predecode(p *codegen.Program) *Code {
	if c, ok := codeCache.Load(p); ok {
		return c.(*Code)
	}
	c := &Code{p: p, ops: make([]decoded, len(p.Instrs))}
	for i, in := range p.Instrs {
		c.ops[i] = decodeOne(in, i)
	}
	// LoadOrStore keeps the winner unique under concurrent first decodes.
	actual, _ := codeCache.LoadOrStore(p, c)
	return actual.(*Code)
}

// DropPredecode removes p's memoized decoded form, if any. The compile
// cache calls this when it evicts a Program, and the service once the
// run of a request-local instrumented Program ends, so the predecode
// memo does not pin Programs in memory forever; Machines already holding
// the Code keep working (the Code itself is immutable), and a later
// Predecode simply recomputes.
func DropPredecode(p *codegen.Program) {
	codeCache.Delete(p)
}

// MemoizedPrograms reports how many Programs currently have a memoized
// decoded form.
func MemoizedPrograms() int {
	n := 0
	codeCache.Range(func(_, _ any) bool {
		n++
		return true
	})
	return n
}

// decodeOne resolves one instruction at absolute index pc.
func decodeOne(in isa.Instr, pc int) decoded {
	d := decoded{
		imm:      in.Imm,
		lat:      int64(in.Latency()),
		op:       in.Op,
		rd:       uint8(in.Rd),
		rs1:      uint8(in.Rs1),
		rs2:      uint8(in.Rs2),
		meta:     in.Meta,
		isMem:    in.IsMem(),
		isBranch: in.IsBranch(),
	}

	switch in.Op {
	case isa.NOP:
		d.kind = dNop
	case isa.LDR, isa.FLDR:
		d.kind = dLoad
		d.writesRd = true
	case isa.STR, isa.FSTR:
		d.kind = dStore
	case isa.B:
		d.kind = dJump
	case isa.CBZ, isa.CBNZ:
		d.kind = dCondBr
		d.condNeg = in.Op == isa.CBNZ
		// Static prediction: backward (target at or before the branch)
		// predicted taken, forward predicted not-taken.
		d.predTaken = in.Imm <= int64(pc)
	case isa.CALL:
		d.kind = dCall
	case isa.RET:
		d.kind = dRet
	case isa.HALT:
		d.kind = dHalt
	case isa.MARK:
		d.kind = dMark
	case isa.CHECK:
		d.kind = dCheck
	case isa.MAJ:
		d.kind = dMaj
	default:
		d.kind = dALU
		d.writesRd = true
		switch in.Op {
		case isa.MOVI:
			d.cval = uint64(in.Imm)
		case isa.FMOVI:
			d.cval = math.Float64bits(in.FImm)
		}
	}
	if in.Shadow > 0 {
		d.kind = dShadow
	}

	// Pipeline operand slots: mirror srcRegs/writesReg of the timing
	// model, with the shadow bank offset folded in.
	bank := uint16(in.Shadow) * isa.NumRegs
	var srcs [2]isa.Reg
	n := 0
	switch in.Op {
	case isa.NOP, isa.MOVI, isa.FMOVI, isa.B, isa.CALL, isa.HALT, isa.MARK:
	case isa.RET:
		srcs[0], n = isa.LR, 1
	case isa.CBZ, isa.CBNZ, isa.CHECK:
		srcs[0], n = in.Rs1, 1
	case isa.MAJ:
		srcs[0], n = in.Rd, 1
	case isa.STR, isa.FSTR:
		srcs[0], srcs[1], n = in.Rs1, in.Rs2, 2
	default:
		srcs[0], n = in.Rs1, 1
		if hasRs2(in.Op) {
			srcs[1], n = in.Rs2, 2
		}
	}
	d.nsrc = uint8(n)
	if n > 0 {
		d.psrc0 = uint16(srcs[0]) + bank
	}
	if n > 1 {
		d.psrc1 = uint16(srcs[1]) + bank
	}
	d.pipeWrites = pipeWritesReg(in.Op)
	if d.pipeWrites {
		d.pdst = uint16(in.Rd) + bank
	}
	return d
}

// pipeWritesReg reports whether the timing model tracks a result latency
// for the op (the CALL link write is modeled as free).
func pipeWritesReg(op isa.Op) bool {
	switch op {
	case isa.NOP, isa.STR, isa.FSTR, isa.B, isa.CBZ, isa.CBNZ,
		isa.RET, isa.HALT, isa.MARK, isa.CHECK, isa.MAJ, isa.CALL:
		return false
	}
	return true
}
