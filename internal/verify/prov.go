package verify

import (
	"cmp"
	"slices"

	"idemproc/internal/isa"
)

// provReg is the whole-program pre-pass lattice for one value: which
// global object it must point into when used as an address (obj, 0 =
// unknown), and — independently — whether it is a known compile-time
// constant (ck/cv). Both facts are path-invariants joined over every way
// execution can reach a pc; mismatches degrade to unknown, so the
// fixpoint is immediate.
type provReg struct {
	obj int64 // global object anchor (0 = unknown)
	ck  bool  // constant value known on every path
	cv  int64
}

// meet weakens f to what also holds given o: an anchor or a constant
// the two disagree on becomes unknown.
func (f provReg) meet(o provReg) provReg {
	if f.obj != o.obj {
		f.obj = 0
	}
	if f.ck && (!o.ck || f.cv != o.cv) {
		f.ck, f.cv = false, 0
	}
	return f
}

// provFact is a pre-pass fact about one absolutely-addressed word.
type provFact struct {
	addr int64
	f    provReg
}

func cmpProvFact(f provFact, addr int64) int { return cmp.Compare(f.addr, addr) }

// factAt returns the fact about absolute address a in the sorted facts
// mem (empty if none).
func factAt(mem []provFact, a int64) provReg {
	if i, ok := slices.BinarySearchFunc(mem, a, cmpProvFact); ok {
		return mem[i].f
	}
	return provReg{}
}

// provState is the pre-pass dataflow state at one pc: a fact per
// register, plus facts about absolutely-addressed memory words (sorted by
// address, none empty). SP is itself tracked as a constant (the startup
// stub materializes it and frames adjust it by immediates), so spill
// slots have known absolute addresses and survive the pass — which is
// what lets a pointer spilled before a MARK and reloaded after it keep
// its provenance. As in the region analysis, a table entry owns its mem
// slice (it lives in the verifier's arena) and the scratch state owns a
// private buffer. An entry the pass never reached holds no facts.
type provState struct {
	regs    [isa.NumRegs]provReg
	mem     []provFact
	reached bool
}

// provPass computes per-pc provenance into vf.prov, flowing straight
// through MARKs. Region boundaries erase value provenance from the
// per-region analysis (live-in registers and stack slots become opaque
// symbols), which loses facts the machine itself preserves:
//
//   - a pointer into global A computed in one region and dereferenced in
//     the next would may-alias every other global (obj recovers this);
//   - a constant materialized just before a MARK — common when
//     MaxRegionSize splits a computation mid-expression — becomes opaque,
//     so exact address offsets turn into may-alias-everything symbols
//     (ck/cv recovers this);
//   - either kind of value spilled before the MARK and reloaded after it
//     (mem recovers this, because spill addresses are compile-time
//     constants once SP is).
//
// The pass inherits the IR's object-extent reasoning: a constant inside a
// global's extent anchors to that global, and pointer+index arithmetic
// keeps the pointer side's anchor (offsets are trusted to stay in bounds,
// exactly as internal/alias trusts IR addressing to stay inside the
// object it names). SP-relative stores with an unknown SP are trusted to
// stay inside the executing function's own frame — the same frame
// discipline the per-region analysis leans on — so they invalidate only
// stack-range facts, not global ones.
func (vf *verifier) provPass() {
	instrs := vf.p.Instrs
	entry := vf.p.Entry
	if entry < 0 || entry >= len(instrs) {
		return
	}
	vf.prov[entry].reached = true
	wl := &vf.wl
	wl.push(entry)
	var out provState
	for wl.n > 0 {
		pc := wl.pop()
		out.regs = vf.prov[pc].regs
		out.mem = append(out.mem[:0], vf.prov[pc].mem...)
		vf.provStep(&out, pc)
		for _, s := range vf.succs(pc) {
			if s < 0 || s >= len(instrs) {
				continue
			}
			cur := &vf.prov[s]
			changed := true
			if !cur.reached {
				cur.regs = out.regs
				cur.mem = vf.provArena.copyOf(out.mem)
				cur.reached = true
			} else {
				changed = cur.join(&out)
			}
			if changed {
				wl.push(s)
			}
		}
	}
}

// join degrades cur to the facts that also hold in out, reporting
// change. Memory facts only drop or weaken, so cur.mem is rewritten in
// place.
func (cur *provState) join(out *provState) bool {
	changed := false
	for r, c := range cur.regs {
		if m := c.meet(out.regs[r]); m != c {
			cur.regs[r] = m
			changed = true
		}
	}
	n, j := 0, 0
	for _, cf := range cur.mem {
		for j < len(out.mem) && out.mem[j].addr < cf.addr {
			j++
		}
		if j == len(out.mem) || out.mem[j].addr != cf.addr {
			changed = true
			continue
		}
		if m := cf.f.meet(out.mem[j].f); m != cf.f {
			changed = true
			if m == (provReg{}) {
				continue
			}
			cf.f = m
		}
		cur.mem[n] = cf
		n++
	}
	cur.mem = cur.mem[:n]
	return changed
}

// provStep is the transfer function: track global anchors and constants
// through moves, arithmetic and constant-addressed memory, drop them
// everywhere else.
func (vf *verifier) provStep(st *provState, pc int) {
	in := &vf.p.Instrs[pc]
	if in.Shadow != 0 || in.Meta {
		return
	}
	regs := &st.regs
	set := func(r isa.Reg, v provReg) {
		if int(r) < len(regs) {
			regs[r] = v
		}
	}
	switch in.Op {
	case isa.MOVI:
		g, _ := vf.anchor(in.Imm)
		set(in.Rd, provReg{obj: g, ck: true, cv: in.Imm})
	case isa.MOV, isa.FMOV:
		set(in.Rd, regs[in.Rs1])
	case isa.ADDI:
		a := regs[in.Rs1]
		out := provReg{obj: a.obj}
		if a.ck {
			out.ck, out.cv = true, a.cv+in.Imm
			out.obj, _ = vf.anchor(out.cv)
		}
		set(in.Rd, out)
	case isa.ADD:
		// Constant operands win the anchor, mirroring addVals' const-anchor
		// priority: `base + index` anchors to the global the constant base
		// names, and the index side's tag — which may be a scalar that
		// merely passed through a small constant — is ignored. Only when
		// neither side is a known constant do the object tags join.
		a, b := regs[in.Rs1], regs[in.Rs2]
		var out provReg
		switch {
		case a.ck && b.ck:
			out.ck, out.cv = true, a.cv+b.cv
			out.obj, _ = vf.anchor(out.cv)
		case a.ck:
			out.obj, _ = vf.anchor(a.cv)
		case b.ck:
			out.obj, _ = vf.anchor(b.cv)
		case a.obj == b.obj:
			out.obj = a.obj
		case b.obj == 0:
			out.obj = a.obj
		case a.obj == 0:
			out.obj = b.obj
		}
		set(in.Rd, out)
	case isa.SUB:
		a, b := regs[in.Rs1], regs[in.Rs2]
		var out provReg
		switch {
		case a.ck && b.ck:
			out.ck, out.cv = true, a.cv-b.cv
			out.obj, _ = vf.anchor(out.cv)
		case b.ck || b.obj == 0:
			// Pointer minus a scalar stays inside the pointed-to object.
			out.obj = a.obj
		}
		set(in.Rd, out)
	case isa.MUL:
		a, b := regs[in.Rs1], regs[in.Rs2]
		var out provReg
		if a.ck && b.ck {
			out.ck, out.cv = true, a.cv*b.cv
			out.obj, _ = vf.anchor(out.cv)
		}
		set(in.Rd, out)
	case isa.LDR:
		a := regs[in.Rs1]
		var out provReg
		if a.ck {
			out = factAt(st.mem, a.cv+in.Imm)
		}
		set(in.Rd, out)
	case isa.STR, isa.FSTR:
		a := regs[in.Rs1]
		switch {
		case a.ck:
			var v provReg
			if in.Op == isa.STR {
				v = regs[in.Rs2]
			}
			key := a.cv + in.Imm
			i, ok := slices.BinarySearchFunc(st.mem, key, cmpProvFact)
			switch {
			case v == (provReg{}):
				if ok {
					st.mem = slices.Delete(st.mem, i, i+1)
				}
			case ok:
				st.mem[i].f = v
			default:
				st.mem = slices.Insert(st.mem, i, provFact{key, v})
			}
		case in.Rs1 == isa.SP:
			// Unknown SP (function called from several stack depths): the
			// store lands somewhere in the current frame, so only facts in
			// the stack range are at risk.
			st.mem = slices.DeleteFunc(st.mem, func(f provFact) bool { return f.addr >= vf.p.GlobalEnd })
		case a.obj != 0:
			// Store somewhere inside one global: facts about other objects
			// and the stack survive.
			st.mem = slices.DeleteFunc(st.mem, func(f provFact) bool {
				g, _ := vf.anchor(f.addr)
				return g == a.obj
			})
		default:
			st.mem = st.mem[:0]
		}
	case isa.CALL:
		regs[isa.LR] = provReg{}
	case isa.FLDR, isa.FMOVI, isa.DIV, isa.REM,
		isa.AND, isa.ORR, isa.EOR, isa.LSL, isa.ASR,
		isa.SEQ, isa.SNE, isa.SLT, isa.SLE, isa.SGT, isa.SGE,
		isa.NEG, isa.MVN, isa.FTOI, isa.ITOF, isa.FNEG,
		isa.FADD, isa.FSUB, isa.FMUL, isa.FDIV,
		isa.FSEQ, isa.FSNE, isa.FSLT, isa.FSLE, isa.FSGT, isa.FSGE:
		// Every other producing op yields an untracked value.
		set(in.Rd, provReg{})
	}
}
