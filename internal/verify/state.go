package verify

import (
	"cmp"
	"fmt"
	"slices"

	"idemproc/internal/isa"
)

// Space classifies an abstract location.
type Space uint8

const (
	// SpaceReg: a physical register.
	SpaceReg Space = iota
	// SpaceStack: a stack word, (Base, Off) relative to a stack base
	// (base 0 is the region-entry SP). Obj carries the provenance
	// anchor: -1 for direct frame addressing (spill slots, saved LR),
	// an alloca's frame offset for pointers derived from it, -2 for an
	// unanchored stack pointer (aliases the whole frame).
	SpaceStack
	// SpaceAbs: an absolute word address (globals). Inexact locations
	// are anchored to the containing global's base address in Obj.
	SpaceAbs
	// SpaceSym: an offset from an opaque live-in base (Base is the
	// symbol id).
	SpaceSym
	// SpaceAny: an unknown address; may alias anything except the stack
	// (mirroring the IR rule that unknown pointers do not reach
	// non-escaped allocas — and the frame is invisible to the IR).
	SpaceAny
)

// Loc is an abstract machine location.
type Loc struct {
	Space Space
	Reg   isa.Reg
	Base  int64
	Obj   int64
	Off   int64
	Exact bool
}

func (l Loc) String() string {
	switch l.Space {
	case SpaceReg:
		return l.Reg.String()
	case SpaceStack:
		if l.Exact {
			return fmt.Sprintf("stack(b%d%+d)", l.Base, l.Off)
		}
		return fmt.Sprintf("stack(b%d,obj%d+?)", l.Base, l.Obj)
	case SpaceAbs:
		if l.Exact {
			return fmt.Sprintf("mem[%d]", l.Off)
		}
		return fmt.Sprintf("mem[%d+?]", l.Obj)
	case SpaceSym:
		if l.Exact {
			return fmt.Sprintf("sym%d%+d", l.Base, l.Off)
		}
		return fmt.Sprintf("sym%d+?", l.Base)
	}
	return "mem[?]"
}

// vkind is the abstract value kind.
type vkind uint8

const (
	vUnknown vkind = iota
	vConst
	vStack
	vSym
)

// val is an abstract register or slot value. rigid marks values that are
// fixed for the whole dynamic execution of a region (region-entry live-ins
// and constants): only locations addressed through rigid values can
// must-kill an exposure. base is a symbol id (see verifier.fresh).
type val struct {
	off   int64
	obj   int64
	base  int32
	kind  vkind
	exact bool
	rigid bool
}

func vconst(c int64) val { return val{kind: vConst, off: c, exact: true, rigid: true} }

// addImm adds a known constant to a value, preserving provenance.
func addImm(v val, c int64) val {
	if v.exact {
		switch v.kind {
		case vConst, vStack, vSym:
			v.off += c
		}
	}
	return v
}

// inexactOf drops offset knowledge but keeps the provenance anchor
// (mirrors the IR resolving base+variable-index to the base's object
// with an unknown offset).
func inexactOf(v val) val {
	switch v.kind {
	case vStack:
		return val{kind: vStack, base: v.base, obj: v.obj, exact: false}
	case vSym:
		return val{kind: vSym, base: v.base, obj: v.obj, exact: false}
	case vConst:
		if !v.exact {
			return v
		}
	}
	return val{}
}

func ptrLike(v val) bool {
	return v.kind == vStack || v.kind == vSym || (v.kind == vConst && !v.exact)
}

// opaque is the stable symbol for "the result computed at pc": exact so
// derived offsets separate, but not rigid (it may differ across loop
// iterations, so it can never witness a must-kill).
func (vf *verifier) opaque(pc int) val {
	id := vf.pcID[pc]
	if id == 0 {
		id = vf.fresh()
		vf.pcID[pc] = id
	}
	return val{kind: vSym, base: id, exact: true}
}

// addVals models ADD. A known constant acts as the offset side; a global
// base plus a variable index keeps the global's object identity.
func (vf *verifier) addVals(a, b val, pc int) val {
	if b.kind == vConst && b.exact {
		a, b = b, a
	}
	if a.kind == vConst && a.exact {
		if b.kind == vConst && b.exact {
			return vconst(a.off + b.off)
		}
		if b.kind == vStack {
			return addImm(b, a.off)
		}
		// A constant inside a global's extent added to a computed value is
		// base-plus-index addressing: keep the global's object identity
		// (mirrors the IR resolving Add(global, idx) to the global with an
		// unknown offset).
		if g, ok := vf.anchor(a.off); ok {
			return val{kind: vConst, obj: g, exact: false}
		}
		if ptrLike(b) {
			return addImm(b, a.off)
		}
		return val{}
	}
	ap, bp := ptrLike(a), ptrLike(b)
	if ap && !bp {
		return inexactOf(a)
	}
	if bp && !ap {
		return inexactOf(b)
	}
	return vf.opaque(pc)
}

func (vf *verifier) subVals(a, b val, pc int) val {
	if b.kind == vConst && b.exact {
		if a.kind == vConst && a.exact {
			return vconst(a.off - b.off)
		}
		return addImm(a, -b.off)
	}
	if ptrLike(a) && !ptrLike(b) {
		return inexactOf(a)
	}
	return vf.opaque(pc)
}

// locOf maps (address value, immediate) to an abstract location, plus
// whether the address is rigid (eligible to witness must-kills).
func locOf(av val, imm int64) (Loc, bool) {
	switch av.kind {
	case vConst:
		if av.exact {
			return Loc{Space: SpaceAbs, Off: av.off + imm, Exact: true}, true
		}
		return Loc{Space: SpaceAbs, Obj: av.obj}, false
	case vStack:
		if av.exact {
			return Loc{Space: SpaceStack, Base: int64(av.base), Obj: av.obj, Off: av.off + imm, Exact: true}, av.rigid
		}
		return Loc{Space: SpaceStack, Base: int64(av.base), Obj: av.obj}, false
	case vSym:
		if av.exact {
			return Loc{Space: SpaceSym, Base: int64(av.base), Obj: av.obj, Off: av.off + imm, Exact: true}, av.rigid
		}
		return Loc{Space: SpaceSym, Base: int64(av.base), Obj: av.obj}, false
	}
	return Loc{Space: SpaceAny}, false
}

// memKey identifies an exact location for the must-write (kill) set and
// the slot-content table. Stack keys deliberately drop the provenance
// anchor: exact locations are compared by address identity alone.
type memKey struct {
	off   int64
	base  int32
	space Space
}

func keyOf(l Loc) memKey { return memKey{space: l.Space, base: int32(l.Base), off: l.Off} }

func cmpKey(a, b memKey) int {
	if a.space != b.space {
		return cmp.Compare(a.space, b.space)
	}
	if a.base != b.base {
		return cmp.Compare(a.base, b.base)
	}
	return cmp.Compare(a.off, b.off)
}

func cmpLoc(a, b Loc) int {
	switch {
	case a.Space != b.Space:
		return cmp.Compare(a.Space, b.Space)
	case a.Base != b.Base:
		return cmp.Compare(a.Base, b.Base)
	case a.Obj != b.Obj:
		return cmp.Compare(a.Obj, b.Obj)
	case a.Off != b.Off:
		return cmp.Compare(a.Off, b.Off)
	case a.Exact != b.Exact:
		if a.Exact {
			return 1
		}
		return -1
	}
	return cmp.Compare(a.Reg, b.Reg)
}

// mayAlias decides whether two abstract memory locations can name the
// same word. The rules mirror internal/alias: distinct stack bases and
// distinct provenance objects never overlap (stack discipline), exact
// addresses compare numerically, opaque bases may overlap anything
// outside the stack.
func (vf *verifier) mayAlias(a, b Loc) bool {
	if a.Space == SpaceAny {
		return b.Space != SpaceStack
	}
	if b.Space == SpaceAny {
		return a.Space != SpaceStack
	}
	if (a.Space == SpaceStack) != (b.Space == SpaceStack) {
		return false
	}
	switch a.Space {
	case SpaceStack:
		if a.Base != b.Base {
			return false
		}
		if a.Exact && b.Exact {
			return a.Off == b.Off
		}
		if (!a.Exact && (a.Obj == -1 || a.Obj == -2)) || (!b.Exact && (b.Obj == -1 || b.Obj == -2)) {
			return true
		}
		if a.Obj == -2 || b.Obj == -2 {
			return true
		}
		return a.Obj == b.Obj
	case SpaceAbs:
		if b.Space == SpaceAbs {
			if a.Exact && b.Exact {
				return a.Off == b.Off
			}
			if !a.Exact && !b.Exact {
				return a.Obj == b.Obj
			}
			ex, in := a, b
			if !a.Exact {
				ex, in = b, a
			}
			g, ok := vf.anchor(ex.Off)
			return ok && g == in.Obj
		}
		// abs vs sym: a live-in pointer may address a global, unless its
		// tracked provenance pins it to a different object.
		return !vf.distinctObj(b, a)
	case SpaceSym:
		if b.Space == SpaceSym {
			if a.Base == b.Base && a.Exact && b.Exact {
				return a.Off == b.Off
			}
			if a.Obj != 0 && b.Obj != 0 && a.Obj != b.Obj {
				return false
			}
			return true
		}
		if b.Space == SpaceAbs {
			return !vf.distinctObj(a, b)
		}
		return true
	}
	return true
}

// distinctObj reports that a provenance-tagged symbolic location and an
// absolute location provably name different global objects. Trusts the
// same object-extent reasoning as the IR: a tagged pointer stays inside
// the global it was derived from.
func (vf *verifier) distinctObj(sym, abs Loc) bool {
	if sym.Obj == 0 {
		return false
	}
	if abs.Exact {
		g, ok := vf.anchor(abs.Off)
		return !ok || g != sym.Obj
	}
	return abs.Obj != 0 && abs.Obj != sym.Obj
}

// regSet is a set of registers, one bit per isa.Reg.
type regSet uint64

// The register file must fit a regSet.
var _ [64 - isa.NumRegs]struct{}

func (s regSet) has(r isa.Reg) bool { return s&(1<<r) != 0 }

// slotFact is one entry of the slot-content table: the value an exact
// stack word holds.
type slotFact struct {
	k memKey
	v val
}

func cmpSlot(f slotFact, k memKey) int { return cmpKey(f.k, k) }

// state is the per-program-point dataflow fact for one region: abstract
// register and slot values (for provenance tracking through spills), the
// exposed-read sets (may, union at joins) and the must-written kill sets
// (intersection at joins). The memory sets are small sorted slices. A
// table entry owns its slices (they live in the verifier's arenas and no
// other state refers to them); the scratch state the transfer function
// runs on owns private buffers.
type state struct {
	regs    [isa.NumRegs]val
	eregs   regSet
	wregs   regSet
	mem     []slotFact // sorted by key
	emem    []Loc      // sorted by cmpLoc
	wmem    []memKey   // sorted by cmpKey
	reached bool
}

// arena is append-only backing storage for the sets of table entries,
// so storing a state costs no allocation of its own. Storage comes in
// chunks, doubling up to arenaChunk elements; a full chunk is left to the
// slices already cut from it rather than copied. Each stored slice is
// capped at its own length: appending to it copies instead of
// overwriting a neighbour. reset recycles the current chunk, and is only
// legal once no table entry still in use refers to it.
type arena[T any] struct{ buf []T }

const arenaChunk = 1024

func (a *arena[T]) reset() { a.buf = a.buf[:0] }

// room makes space for n more elements in the current chunk.
func (a *arena[T]) room(n int) {
	if len(a.buf)+n <= cap(a.buf) {
		return
	}
	a.buf = make([]T, 0, max(n, min(max(64, 2*cap(a.buf)), arenaChunk)))
}

// copyOf returns an arena copy of s.
func (a *arena[T]) copyOf(s []T) []T {
	if len(s) == 0 {
		return nil
	}
	a.room(len(s))
	n := len(a.buf)
	a.buf = append(a.buf, s...)
	return a.buf[n:len(a.buf):len(a.buf)]
}

// union returns the sorted set dst ∪ src and whether it differs from
// dst; a grown set is written to the arena, dst is left untouched.
func (a *arena[T]) union(dst, src []T, compare func(a, b T) int) ([]T, bool) {
	if subset(src, dst, compare) {
		return dst, false
	}
	a.room(len(dst) + len(src))
	n, i := len(a.buf), 0
	for _, x := range src {
		for i < len(dst) && compare(dst[i], x) < 0 {
			a.buf = append(a.buf, dst[i])
			i++
		}
		if i < len(dst) && compare(dst[i], x) == 0 {
			continue
		}
		a.buf = append(a.buf, x)
	}
	a.buf = append(a.buf, dst[i:]...)
	return a.buf[n:len(a.buf):len(a.buf)], true
}

// subset reports whether every element of the sorted set sub is in the
// sorted set set.
func subset[T any](sub, set []T, compare func(a, b T) int) bool {
	i := 0
	for _, x := range sub {
		for i < len(set) && compare(set[i], x) < 0 {
			i++
		}
		if i == len(set) || compare(set[i], x) != 0 {
			return false
		}
	}
	return true
}

// load makes the scratch state sc a copy of src, reusing sc's buffers.
func (sc *state) load(src *state) {
	sc.regs, sc.eregs, sc.wregs = src.regs, src.eregs, src.wregs
	sc.mem = append(sc.mem[:0], src.mem...)
	sc.emem = append(sc.emem[:0], src.emem...)
	sc.wmem = append(sc.wmem[:0], src.wmem...)
}

// store makes the table entry dst a copy of the scratch state sc.
func (vf *verifier) store(dst, sc *state) {
	dst.regs, dst.eregs, dst.wregs = sc.regs, sc.eregs, sc.wregs
	dst.mem = vf.slotArena.copyOf(sc.mem)
	dst.emem = vf.locArena.copyOf(sc.emem)
	dst.wmem = vf.keyArena.copyOf(sc.wmem)
}

// mergeFrom joins src into the table entry dst at join point pc,
// reporting change. Every set is walked in sorted order, so the symbols
// the join allocates are numbered the same way on every run.
func (dst *state) mergeFrom(src *state, pc int, vf *verifier) bool {
	changed := false
	if e := dst.eregs | src.eregs; e != dst.eregs {
		dst.eregs = e
		changed = true
	}
	if w := dst.wregs & src.wregs; w != dst.wregs {
		dst.wregs = w
		changed = true
	}
	for i := range dst.regs {
		if dst.regs[i] != src.regs[i] {
			j := vf.joinVal(dst.regs[i], src.regs[i], pc, int64(i))
			if j != dst.regs[i] {
				dst.regs[i] = j
				changed = true
			}
		}
	}
	if u, grew := vf.locArena.union(dst.emem, src.emem, cmpLoc); grew {
		dst.emem = u
		changed = true
	}
	// Intersections only shrink, so they rewrite dst's own slices.
	n, j := 0, 0
	for _, k := range dst.wmem {
		for j < len(src.wmem) && cmpKey(src.wmem[j], k) < 0 {
			j++
		}
		if j < len(src.wmem) && src.wmem[j] == k {
			dst.wmem[n] = k
			n++
		}
	}
	if n != len(dst.wmem) {
		dst.wmem = dst.wmem[:n]
		changed = true
	}
	n, j = 0, 0
	for _, f := range dst.mem {
		for j < len(src.mem) && cmpKey(src.mem[j].k, f.k) < 0 {
			j++
		}
		if j == len(src.mem) || src.mem[j].k != f.k {
			changed = true
			continue
		}
		if sv := src.mem[j].v; sv != f.v {
			if jv := vf.joinVal(f.v, sv, pc, vf.memSlotID(f.k)); jv != f.v {
				f.v = jv
				changed = true
			}
		}
		dst.mem[n] = f
		n++
	}
	dst.mem = dst.mem[:n]
	return changed
}

// memSlotID gives a stable join-slot index for a memory key (register
// slots use 0..NumRegs-1).
func (vf *verifier) memSlotID(k memKey) int64 {
	id, ok := vf.memSlot[k]
	if !ok {
		id = int64(isa.NumRegs) + int64(len(vf.memSlot))
		vf.memSlot[k] = id
	}
	return id
}

// joinVal degrades two differing values. Memoized symbol allocation
// (joinID keyed by join point and slot) makes the join idempotent, so
// the fixpoint converges: a second visit reproduces the same symbol.
func (vf *verifier) joinVal(a, b val, pc int, slot int64) val {
	if a == b {
		return a
	}
	switch {
	case a.kind == vConst && b.kind == vConst:
		if a.exact && b.exact {
			g1, ok1 := vf.anchor(a.off)
			g2, ok2 := vf.anchor(b.off)
			if ok1 && ok2 && g1 == g2 {
				return val{kind: vConst, obj: g1, exact: false}
			}
			return val{}
		}
		if !a.exact && !b.exact && a.obj == b.obj {
			return val{kind: vConst, obj: a.obj, exact: false}
		}
		ex, in := a, b
		if !a.exact {
			ex, in = b, a
		}
		if ex.exact && !in.exact {
			if g, ok := vf.anchor(ex.off); ok && g == in.obj {
				return in
			}
		}
		return val{}
	case a.kind == vStack && b.kind == vStack:
		if a.obj == -1 && b.obj == -1 {
			// Two frame pointers meeting (recursion): collapse onto a
			// fresh stack base — frames stay disjoint by discipline, and
			// per-depth write-before-read keeps must-kills truthful.
			id := vf.joinStackBase(pc, slot)
			return val{kind: vStack, base: id, obj: -1, exact: true, rigid: true}
		}
		if a.base == b.base && a.obj == b.obj {
			return val{kind: vStack, base: a.base, obj: a.obj, exact: false}
		}
		return val{}
	case a.kind == vSym && b.kind == vSym && a.base == b.base:
		obj := a.obj
		if b.obj != obj {
			obj = 0
		}
		return val{kind: vSym, base: a.base, obj: obj, exact: false}
	}
	return val{}
}

func (vf *verifier) joinStackBase(pc int, slot int64) int32 {
	k := joinKey{pc, slot}
	id, ok := vf.joinID[k]
	if !ok {
		id = vf.fresh()
		vf.joinID[k] = id
	}
	return id
}

// exemptReg reports registers outside the criterion: SP and LR are
// snapshotted at every MARK and restored on recovery, RP is the mark.
func exemptReg(r isa.Reg) bool { return r == isa.SP || r == isa.LR || r == isa.RP }

func (vf *verifier) readReg(st *state, r isa.Reg) val {
	if !exemptReg(r) && !st.wregs.has(r) {
		st.eregs |= 1 << r
	}
	return st.regs[r]
}

func (vf *verifier) writeReg(st *state, r isa.Reg, v val, pc, region int) {
	if !exemptReg(r) && st.eregs.has(r) {
		vf.violate(region, pc, Loc{Space: SpaceReg, Reg: r}, KindClobberReg)
	}
	st.regs[r] = v
	st.wregs |= 1 << r
}

// memRead records the exposure of a load unless a must-write to the same
// exact, rigidly-addressed word precedes it in-region (a flow
// dependence: re-execution reads the value the region itself wrote).
func (vf *verifier) memRead(st *state, loc Loc, rigid bool) {
	if loc.Exact && rigid {
		if _, ok := slices.BinarySearchFunc(st.wmem, keyOf(loc), cmpKey); ok {
			return
		}
	}
	if i, ok := slices.BinarySearchFunc(st.emem, loc, cmpLoc); !ok {
		st.emem = slices.Insert(st.emem, i, loc)
	}
}

// memWrite flags the store if it may alias any exposed read, then
// updates the kill set and the slot-content table.
func (vf *verifier) memWrite(st *state, loc Loc, v val, rigid bool, pc, region int) {
	for _, e := range st.emem {
		if vf.mayAlias(e, loc) {
			vf.violate(region, pc, loc, KindClobberMem)
			break
		}
	}
	k := keyOf(loc)
	if loc.Exact && rigid {
		if i, ok := slices.BinarySearchFunc(st.wmem, k, cmpKey); !ok {
			st.wmem = slices.Insert(st.wmem, i, k)
		}
	}
	if loc.Space != SpaceStack {
		return
	}
	if loc.Exact {
		// Exact slots are address identities: only the written word changes.
		st.setSlot(k, v)
		return
	}
	// Imprecise stack store: drop every same-base slot value it might
	// overwrite (non-stack stores cannot reach the frame).
	st.mem = slices.DeleteFunc(st.mem, func(f slotFact) bool { return f.k.base == k.base })
}

// setSlot records that exact slot k holds v.
func (st *state) setSlot(k memKey, v val) {
	i, ok := slices.BinarySearchFunc(st.mem, k, cmpSlot)
	if ok {
		st.mem[i].v = v
		return
	}
	st.mem = slices.Insert(st.mem, i, slotFact{k, v})
}

// slotVal is the stable symbol for "the region-entry content of slot k":
// rigid, because an in-region clobber of the slot would itself be
// flagged.
func (vf *verifier) slotVal(k memKey) val {
	id, ok := vf.slotID[k]
	if !ok {
		id = vf.fresh()
		vf.slotID[k] = id
	}
	return val{kind: vSym, base: id, exact: true, rigid: true}
}

// step executes the transfer function for pc on the scratch state st and
// returns the successor pcs (in a buffer the next step reuses).
func (vf *verifier) step(st *state, pc, region int) []int {
	in := &vf.p.Instrs[pc]
	if in.Shadow != 0 || in.Meta {
		return vf.succs(pc) // protected instrumentation: no architectural effect
	}
	switch in.Op {
	case isa.MOVI:
		vf.writeReg(st, in.Rd, vconst(in.Imm), pc, region)
	case isa.FMOVI:
		vf.writeReg(st, in.Rd, val{}, pc, region)
	case isa.MOV, isa.FMOV:
		v := vf.readReg(st, in.Rs1)
		vf.writeReg(st, in.Rd, v, pc, region)
	case isa.ADD:
		a, b := vf.readReg(st, in.Rs1), vf.readReg(st, in.Rs2)
		vf.writeReg(st, in.Rd, vf.addVals(a, b, pc), pc, region)
	case isa.SUB:
		a, b := vf.readReg(st, in.Rs1), vf.readReg(st, in.Rs2)
		vf.writeReg(st, in.Rd, vf.subVals(a, b, pc), pc, region)
	case isa.MUL, isa.DIV, isa.REM, isa.AND, isa.ORR, isa.EOR, isa.LSL, isa.ASR,
		isa.SEQ, isa.SNE, isa.SLT, isa.SLE, isa.SGT, isa.SGE:
		vf.readReg(st, in.Rs1)
		vf.readReg(st, in.Rs2)
		vf.writeReg(st, in.Rd, vf.opaque(pc), pc, region)
	case isa.ADDI:
		v := vf.readReg(st, in.Rs1)
		res := addImm(v, in.Imm)
		if v.kind == vStack && v.obj == -1 && v.exact && in.Rd != isa.SP {
			// A frame address materialized into a pointer register is an
			// alloca base: give it its own provenance object.
			res.obj = res.off
		}
		vf.writeReg(st, in.Rd, res, pc, region)
	case isa.NEG, isa.MVN, isa.FTOI:
		vf.readReg(st, in.Rs1)
		vf.writeReg(st, in.Rd, vf.opaque(pc), pc, region)
	case isa.ITOF, isa.FNEG:
		vf.readReg(st, in.Rs1)
		vf.writeReg(st, in.Rd, val{}, pc, region)
	case isa.FADD, isa.FSUB, isa.FMUL, isa.FDIV:
		vf.readReg(st, in.Rs1)
		vf.readReg(st, in.Rs2)
		vf.writeReg(st, in.Rd, val{}, pc, region)
	case isa.FSEQ, isa.FSNE, isa.FSLT, isa.FSLE, isa.FSGT, isa.FSGE:
		vf.readReg(st, in.Rs1)
		vf.readReg(st, in.Rs2)
		vf.writeReg(st, in.Rd, vf.opaque(pc), pc, region)
	case isa.LDR, isa.FLDR:
		av := vf.readReg(st, in.Rs1)
		loc, rigid := locOf(av, in.Imm)
		vf.memRead(st, loc, rigid)
		res := val{}
		if in.Op == isa.LDR && loc.Space == SpaceStack && loc.Exact {
			k := keyOf(loc)
			if i, ok := slices.BinarySearchFunc(st.mem, k, cmpSlot); ok {
				res = st.mem[i].v
			} else if _, written := slices.BinarySearchFunc(st.wmem, k, cmpKey); written {
				res = vf.opaque(pc) // overwritten then forgotten: not entry content
			} else {
				res = vf.slotVal(k)
				// Upgrade the opaque entry symbol with whatever the
				// whole-program pre-pass proved about this slot's content at
				// the region boundary: spilled pointers keep their global
				// anchor, spilled constants their value. Base 0 is the
				// region-entry SP, so the absolute slot address is known
				// whenever SP's is.
				if ps := &vf.prov[vf.regionStart]; k.base == 0 {
					if sp := ps.regs[isa.SP]; sp.ck {
						f := factAt(ps.mem, sp.cv+k.off)
						if f.ck {
							res = vconst(f.cv)
						} else {
							res.obj = f.obj
						}
					}
				}
				st.mem = slices.Insert(st.mem, i, slotFact{k, res})
			}
		}
		vf.writeReg(st, in.Rd, res, pc, region)
	case isa.STR, isa.FSTR:
		av := vf.readReg(st, in.Rs1)
		data := vf.readReg(st, in.Rs2)
		loc, rigid := locOf(av, in.Imm)
		vf.memWrite(st, loc, data, rigid, pc, region)
	case isa.CBZ, isa.CBNZ:
		vf.readReg(st, in.Rs1)
	case isa.CALL:
		st.regs[isa.LR] = vconst(int64(pc + 1))
		st.wregs |= 1 << isa.LR
	case isa.RET:
		if lr := st.regs[isa.LR]; lr.kind == vConst && lr.exact {
			return append(vf.succBuf[:0], int(lr.off))
		}
		// Opaque return address (region entered mid-callee): succs
		// conservatively continues at every return site of the function.
	case isa.MARK:
		// Only reached for Shadow/Meta-free marks at pc != region entry;
		// the driver treats these as boundaries before stepping, so this
		// is the region's own entry revisited: commit, path ends.
		return nil
	}
	return vf.succs(pc)
}

// succs returns the machine CFG successors of pc, with RET flowing to
// every return site of the containing function. The result is vf.succBuf
// or a caller list, valid until the next call and never modified.
func (vf *verifier) succs(pc int) []int {
	in := &vf.p.Instrs[pc]
	buf := vf.succBuf[:0]
	if in.Shadow != 0 || in.Meta {
		return append(buf, pc+1)
	}
	switch in.Op {
	case isa.B, isa.CALL:
		return append(buf, int(in.Imm))
	case isa.CBZ, isa.CBNZ:
		return append(buf, pc+1, int(in.Imm))
	case isa.RET:
		fn := ""
		if pc < len(vf.p.FuncOf) {
			fn = vf.p.FuncOf[pc]
		}
		return vf.callers[fn]
	case isa.HALT:
		return nil
	}
	return append(buf, pc+1)
}
