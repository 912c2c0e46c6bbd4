// Package verify is a machine-level translation validator for the paper's
// §2.1 idempotence criterion. It re-derives, directly from a linked
// codegen.Program's flat isa.Instr stream — independently of every
// compiler pass that constructed it — the guarantee the whole system
// rests on: within a MARK-delimited region, no location is written after
// an exposed read (a read of the region's live-in state), so any region
// can be re-executed from its entry point with identical results.
//
// The checker rebuilds the machine-level CFG from branch targets and MARK
// boundaries (interprocedurally: CALL edges into callees, RET edges
// recovered through a tracked link register, with an all-callers fallback
// when LR is opaque), then runs a forward may/must dataflow per region
// over an abstract location model:
//
//   - registers, with SP/LR/RP exempt (the recovery contract snapshots
//     SP and LR at every MARK and restores them on re-execution, and RP
//     is written by the mark itself — see internal/machine);
//   - stack words by (base, offset), where a base is a region-entry-SP
//     provenance class and frames collapse onto fresh symbolic bases
//     under recursion (the stack-discipline axiom: distinct frames do
//     not overlap);
//   - globals by absolute word address with per-global extents;
//   - opaque symbolic bases for live-in pointer values.
//
// The alias rules deliberately mirror internal/alias's IR-level
// precision: any load/store pair the IR analysis called may-aliasing was
// already cut apart by redelim/multicut, so the machine model never
// claims no-alias where the IR would not, and conservative answers can
// never flag correct output (no false positives on the workload matrix).
// Mutations that break the machine-level discipline — a dropped MARK, a
// store reordered across a load, a retargeted spill slot — are caught by
// the exact-offset and provenance rules. Verify never panics on
// malformed input; structural damage surfaces as KindBadBranch
// violations instead. See docs/verify.md.
package verify

import (
	"sort"

	"idemproc/internal/codegen"
	"idemproc/internal/isa"
)

// Kind classifies a violation of the region re-execution contract.
type Kind uint8

const (
	// KindClobberReg: a register with an exposed in-region read is
	// overwritten later in the same region (§4.4 broken).
	KindClobberReg Kind = iota
	// KindClobberMem: a store may-aliases a memory location with an
	// exposed in-region read (§2.1 clobber antidependence).
	KindClobberMem
	// KindBadBranch: control flow leaves the instruction stream
	// (malformed or truncated program).
	KindBadBranch
	// KindBudget: the dataflow did not converge within the analysis
	// budget; the region could not be proven safe.
	KindBudget
)

func (k Kind) String() string {
	switch k {
	case KindClobberReg:
		return "register-clobber"
	case KindClobberMem:
		return "memory-clobber"
	case KindBadBranch:
		return "bad-branch"
	case KindBudget:
		return "analysis-budget"
	}
	return "unknown"
}

// Violation reports one breach of the criterion: the instruction at PC,
// inside the region entered at Region (the pc of its MARK, or the
// program entry for the startup pseudo-region), writes Loc even though
// Loc has an exposed read earlier in the region.
type Violation struct {
	Region int
	PC     int
	Loc    Loc
	Kind   Kind
}

// Report is the result of verifying one program.
type Report struct {
	Violations []Violation
	// Regions is the number of regions analyzed (every MARK plus the
	// startup pseudo-region).
	Regions int
	// Skipped is set when the program carries no region marks (compiled
	// non-idempotent) and there is nothing to check.
	Skipped bool
}

// OK reports whether the program passed (a skipped program is trivially
// OK — there is no contract to check).
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Verify checks every region of p against the §2.1 criterion. It never
// panics: malformed programs produce KindBadBranch violations. Programs
// without marks (p.Marks == 0) are Skipped.
func Verify(p *codegen.Program) *Report {
	rep := &Report{}
	if p == nil || len(p.Instrs) == 0 {
		return rep
	}
	if p.Marks == 0 {
		rep.Skipped = true
		return rep
	}
	vf := newVerifier(p)
	vf.analyzeRegion(p.Entry)
	rep.Regions++
	for pc, in := range p.Instrs {
		if in.Op == isa.MARK && in.Shadow == 0 {
			vf.analyzeRegion(pc)
			rep.Regions++
		}
	}
	rep.Violations = vf.out
	sort.Slice(rep.Violations, func(i, j int) bool {
		a, b := rep.Violations[i], rep.Violations[j]
		if a.Region != b.Region {
			return a.Region < b.Region
		}
		if a.PC != b.PC {
			return a.PC < b.PC
		}
		return a.Kind < b.Kind
	})
	return rep
}

// verifier holds the per-program analysis context: symbol allocation is
// memoized so the fixpoint converges (a join point always degrades to
// the same fresh symbol), and the caller map backs the RET fallback.
type verifier struct {
	p       *codegen.Program
	gbase   []int64          // sorted global base addresses (extent table)
	callers map[string][]int // function name -> return-site pcs
	prov    []provState      // per-pc register + memory provenance (see prov.go)

	// regionStart is the first in-region pc of the region currently under
	// analysis; slot reads use it to look up entry-content provenance.
	regionStart int

	nextID  int32
	entryID [isa.NumRegs]int32 // region-entry register symbols
	pcID    []int32            // opaque per-instruction results (0 = none yet)
	slotID  map[memKey]int32   // region-entry contents of stack slots
	joinID  map[joinKey]int32  // degraded values at join points
	memSlot map[memKey]int64   // stable slot index for join keying

	// The dataflow tables: one entry per pc, allocated once per program.
	// The region table is reused by every region: touched lists the
	// entries a region reached, so the next region resets only those.
	// Both fixpoints share the worklist and step on one scratch state
	// each; the arenas back the memory sets of table entries (see arena).
	states    []state
	touched   []int
	scratch   state
	wl        worklist
	succBuf   [2]int
	slotArena arena[slotFact]
	locArena  arena[Loc]
	keyArena  arena[memKey]
	provArena arena[provFact]

	seen map[vkey]bool
	out  []Violation
}

type joinKey struct {
	pc   int
	slot int64
}

type vkey struct {
	region int
	pc     int
	kind   Kind
}

func newVerifier(p *codegen.Program) *verifier {
	n := len(p.Instrs)
	vf := &verifier{
		p:       p,
		callers: map[string][]int{},
		pcID:    make([]int32, n),
		slotID:  map[memKey]int32{},
		joinID:  map[joinKey]int32{},
		memSlot: map[memKey]int64{},
		prov:    make([]provState, n),
		states:  make([]state, n),
		wl:      worklist{q: make([]int, n), in: make([]bool, n)},
		seen:    map[vkey]bool{},
	}
	for _, base := range p.GlobalBase {
		vf.gbase = append(vf.gbase, base)
	}
	sort.Slice(vf.gbase, func(i, j int) bool { return vf.gbase[i] < vf.gbase[j] })
	for pc, in := range p.Instrs {
		if in.Op == isa.CALL && in.Shadow == 0 {
			vf.callers[in.Sym] = append(vf.callers[in.Sym], pc+1)
		}
	}
	vf.nextID = 1
	for r := range vf.entryID {
		vf.entryID[r] = vf.fresh()
	}
	vf.provPass()
	return vf
}

// reach marks pc reached by the current region and returns its table
// entry, emptied.
func (vf *verifier) reach(pc int) *state {
	vf.touched = append(vf.touched, pc)
	st := &vf.states[pc]
	*st = state{reached: true}
	return st
}

func (vf *verifier) fresh() int32 {
	id := vf.nextID
	vf.nextID++
	return id
}

// anchor finds the global object containing absolute word address a.
func (vf *verifier) anchor(a int64) (int64, bool) {
	if a < 1 || a >= vf.p.GlobalEnd || len(vf.gbase) == 0 {
		return 0, false
	}
	i := sort.Search(len(vf.gbase), func(i int) bool { return vf.gbase[i] > a })
	if i == 0 {
		return 0, false
	}
	return vf.gbase[i-1], true
}

func (vf *verifier) violate(region, pc int, loc Loc, kind Kind) {
	k := vkey{region, pc, kind}
	if vf.seen[k] {
		return
	}
	vf.seen[k] = true
	vf.out = append(vf.out, Violation{Region: region, PC: pc, Loc: loc, Kind: kind})
}

// analyzeRegion runs the exposure dataflow for the region entered at
// entry (a MARK pc, or the program entry for the startup pseudo-region)
// to a fixpoint over every path that ends at the next MARK or HALT.
func (vf *verifier) analyzeRegion(entry int) {
	instrs := vf.p.Instrs
	start := entry
	if instrs[entry].Op == isa.MARK {
		start = entry + 1
		if start >= len(instrs) {
			vf.violate(entry, entry, Loc{Space: SpaceAny}, KindBadBranch)
			return
		}
	}
	for _, pc := range vf.touched {
		vf.states[pc].reached = false
	}
	vf.touched = vf.touched[:0]
	vf.slotArena.reset()
	vf.locArena.reset()
	vf.keyArena.reset()
	vf.entryState(start)
	wl := &vf.wl
	wl.clear()
	wl.push(start)
	sc := &vf.scratch
	budget := 128*len(instrs) + 4096
	for steps := 1; wl.n > 0; steps++ {
		if steps > budget {
			vf.violate(entry, entry, Loc{Space: SpaceAny}, KindBudget)
			return
		}
		pc := wl.pop()
		sc.load(&vf.states[pc])
		for _, s := range vf.step(sc, pc, entry) {
			if s < 0 || s >= len(instrs) {
				vf.violate(entry, pc, Loc{Space: SpaceAny}, KindBadBranch)
				continue
			}
			if instrs[s].Op == isa.MARK && instrs[s].Shadow == 0 {
				continue // region boundary: state commits here
			}
			changed := true
			if dst := &vf.states[s]; !dst.reached {
				vf.store(vf.reach(s), sc)
			} else {
				changed = dst.mergeFrom(sc, s, vf)
			}
			if changed {
				wl.push(s)
			}
		}
	}
}

// worklist is the FIFO both fixpoints run: a ring of pcs, each queued at
// most once (in marks the queued ones), so it never outgrows the program.
type worklist struct {
	q       []int
	in      []bool
	head, n int
}

func (w *worklist) push(pc int) {
	if w.in[pc] {
		return
	}
	w.in[pc] = true
	w.q[(w.head+w.n)%len(w.q)] = pc
	w.n++
}

func (w *worklist) pop() int {
	pc := w.q[w.head]
	w.in[pc] = false
	w.head = (w.head + 1) % len(w.q)
	w.n--
	return pc
}

// clear empties the worklist.
func (w *worklist) clear() {
	for w.n > 0 {
		w.pop()
	}
}

// entryState models the machine at a region boundary in the table entry
// for start: SP is the only value with full provenance (stack base 0);
// every other register holds an opaque but fixed live-in value, upgraded
// with whatever the whole-program pre-pass proved about it — a known
// constant becomes a real constant (MaxRegionSize splits routinely strand
// `movi`s just before a MARK), and a global-object anchor tags the symbol
// so different-object addresses stop may-aliasing.
func (vf *verifier) entryState(start int) {
	vf.regionStart = start
	st := vf.reach(start)
	pv := &vf.prov[start]
	for r, f := range pv.regs {
		st.regs[r] = val{kind: vSym, base: vf.entryID[r], exact: true, rigid: true}
		if f.ck {
			st.regs[r] = vconst(f.cv)
		} else {
			st.regs[r].obj = f.obj
		}
	}
	st.regs[isa.SP] = val{kind: vStack, base: 0, obj: -1, exact: true, rigid: true}
}
