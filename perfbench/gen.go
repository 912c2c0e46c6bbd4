package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"

	"idemproc/internal/codegen"
	"idemproc/internal/core"
	"idemproc/internal/server"
	"idemproc/internal/workloads"
)

// rng is splitmix64: tiny, seedable and stable across Go releases, so a
// seed names the same request sequence forever.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream uint64) *rng {
	return &rng{s: seed*0x9e3779b97f4a7c15 ^ stream*0xd1b54a32d192ed03}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) shuffle(xs []int) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// variant is one ModuleOptions configuration: the request spelling sent
// to the service and the resolved options the oracle and the traced
// replay compile with.
type variant struct {
	name string
	spec *server.OptionsSpec
	mo   codegen.ModuleOptions
}

// matrixVariants is the number of leading variants that form the
// 9-entry ModuleOptions matrix of internal/verify's
// TestWorkloadMatrixClean; the last entry is the conventional build the
// none/dmr/tmr/cl schemes simulate.
const matrixVariants = 9

var variants = func() []variant {
	f := false
	withMax := func(n int) core.Options {
		o := core.DefaultOptions()
		o.MaxRegionSize = n
		return o
	}
	idem := func(o core.Options) codegen.ModuleOptions {
		return codegen.ModuleOptions{Idempotent: true, Core: o}
	}
	maxRegion := func(n int) variant {
		return variant{fmt.Sprintf("maxregion%d", n),
			&server.OptionsSpec{Core: &server.CoreOptionsSpec{MaxRegionSize: n}}, idem(withMax(n))}
	}
	noRedElim := core.DefaultOptions()
	noRedElim.RedElim = false
	return []variant{
		{"default", nil, idem(core.DefaultOptions())},
		{"purecalls", &server.OptionsSpec{PureCalls: true},
			codegen.ModuleOptions{Idempotent: true, Core: core.DefaultOptions(), PureCalls: true}},
		{"nounroll", &server.OptionsSpec{Core: &server.CoreOptionsSpec{UnrollLoops: &f}},
			idem(core.Options{LoopHeuristic: true, RedElim: true, CutAtCalls: true})},
		maxRegion(8), maxRegion(16), maxRegion(32), maxRegion(64),
		{"noloopheur", &server.OptionsSpec{Core: &server.CoreOptionsSpec{LoopHeuristic: &f}},
			idem(core.Options{RedElim: true, UnrollLoops: true, CutAtCalls: true})},
		{"redelim-off", &server.OptionsSpec{Core: &server.CoreOptionsSpec{RedElim: &f}}, idem(noRedElim)},
		{"plain", &server.OptionsSpec{Idempotent: &f},
			codegen.ModuleOptions{Idempotent: false, Core: core.DefaultOptions()}},
	}
}()

const (
	variantDefault = 0
	variantPlain   = matrixVariants
)

// allWorkloads is the 31-workload suite, in its fixed order.
var allWorkloads = workloads.All()

// schemes are the simulate schemes; idem runs the idempotent build, the
// others the conventional one.
var schemes = []string{"none", "dmr", "tmr", "cl", "idem"}

// injectModels are the fault models simulate-warm draws from. Memory-word
// faults are left out: the paper assumes ECC-protected memory, and a
// flipped data word legitimately changes r0.
var injectModels = []string{"reg", "burst", "cf", "boundary", "nested"}

// unit is one compile or simulate unit of a request.
type unit struct {
	simulate bool
	w        workloads.Workload
	// Compile units.
	v        int
	source   bool
	memWords int
	// Simulate units. watchdog is the fault-free run length the
	// livelock watchdog is scaled by when faults are injected.
	scheme   string
	injs     []server.InjectionSpec
	watchdog int64
}

func (u unit) mo() codegen.ModuleOptions {
	if u.simulate {
		if u.scheme == "idem" {
			return variants[variantDefault].mo
		}
		return variants[variantPlain].mo
	}
	return variants[u.v].mo
}

// buildWorkload is the workload the service compiles for u, so that
// u's build key is the service's: sources compile under their content
// hash, and compile units at their requested memory size.
func (u unit) buildWorkload() workloads.Workload {
	w := u.w
	if u.simulate {
		return w
	}
	if u.source {
		w, _ = server.SourceWorkload(u.w.Source, u.memWords, nil) // workload sources are valid
		return w
	}
	if u.memWords != 0 {
		w.MemWords = u.memWords
	}
	return w
}

func (u unit) batchUnit() server.BatchUnit {
	if u.simulate {
		return server.BatchUnit{Simulate: &server.SimulateRequest{
			Workload: u.w.Name, Scheme: u.scheme, Injections: u.injs, WatchdogRef: u.watchdog}}
	}
	req := &server.CompileRequest{MemWords: u.memWords, Options: variants[u.v].spec}
	if u.source {
		req.Source = u.w.Source
	} else {
		req.Workload = u.w.Name
	}
	return server.BatchUnit{Compile: req}
}

type opKind int

const (
	opCompile opKind = iota
	opSimulate
	opBatch
	opJob
)

var opNames = [...]string{"compile", "simulate", "batch", "job"}

// op is one closed-loop request: a compile or simulate call, a batch, or
// a job (the batch body posted to /v1/batch, then to /v1/jobs and
// streamed). body is the JSON sent; for jobs it is the batch body.
type op struct {
	idx   int
	kind  opKind
	units []unit
	body  []byte
}

func (o op) path() string {
	switch o.kind {
	case opCompile:
		return "/v1/compile"
	case opSimulate:
		return "/v1/simulate"
	}
	return "/v1/batch"
}

func encodeOp(o *op) {
	var v any
	switch o.kind {
	case opCompile:
		v = o.units[0].batchUnit().Compile
	case opSimulate:
		v = o.units[0].batchUnit().Simulate
	default:
		br := server.BatchRequest{Units: make([]server.BatchUnit, len(o.units))}
		for i, u := range o.units {
			br.Units[i] = u.batchUnit()
		}
		v = br
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("encoding request: %v", err)) // fixed structs always marshal
	}
	o.body = b
}

// source generates one workload's request stream. next is called under
// the sequence lock, so implementations need no locking.
type source interface {
	next() op
}

// sequence hands out a source's ops in order to any number of clients:
// the sequence depends on the seed alone, not on which client takes
// which op.
type sequence struct {
	mu  sync.Mutex
	src source
	n   int
}

func (s *sequence) next() op {
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.src.next()
	o.idx = s.n
	s.n++
	encodeOp(&o)
	return o
}

// cycler walks a grid of cells in rounds. Every round visits each cell
// once, in an order that interleaves cost strata: cells are sorted by a
// cost proxy and cut into strata of stratumSize cells; a round is made
// of passes, and each pass takes one cell from every stratum, in a
// shuffled order. Every pass therefore holds the same spread of cheap
// and expensive cells, so the work done in a fixed time varies little
// from seed to seed.
type cycler struct {
	r      *rng
	strata [][]int
	order  []int
	pos    int
	round  int
}

func newCycler(r *rng, cost []float64, stratumSize int) *cycler {
	idx := make([]int, len(cost))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return cost[idx[a]] > cost[idx[b]] })
	c := &cycler{r: r, round: -1}
	for lo := 0; lo < len(idx); lo += stratumSize {
		hi := min(lo+stratumSize, len(idx))
		c.strata = append(c.strata, append([]int(nil), idx[lo:hi]...))
	}
	return c
}

func (c *cycler) next() int {
	if c.pos == len(c.order) {
		c.round++
		c.pos = 0
		c.order = c.order[:0]
		for _, s := range c.strata {
			c.r.shuffle(s)
		}
		perm := make([]int, len(c.strata))
		for i := range perm {
			perm[i] = i
		}
		for j := 0; ; j++ {
			c.r.shuffle(perm)
			took := false
			for _, s := range perm {
				if j < len(c.strata[s]) {
					c.order = append(c.order, c.strata[s][j])
					took = true
				}
			}
			if !took {
				break
			}
		}
	}
	x := c.order[c.pos]
	c.pos++
	return x
}

// ---------------------------------------------------------------------
// compile-cold

// sourceShare is the share of compile units sent as inline source.
const sourceShare = 0.25

// memStride separates the memory sizes of successive rounds. The memory
// size is part of the build key (it is linked into the startup stub), so
// round r's builds are distinct from every earlier round's while the
// compile work is the same.
const memStride = 64

type compileCold struct {
	r     *rng
	cells [][2]int // (workload, variant)
	cyc   *cycler
}

func newCompileCold(seed uint64) *compileCold {
	g := &compileCold{r: newRNG(seed, 1)}
	var cost []float64
	for wi, w := range allWorkloads {
		for v := 0; v < matrixVariants; v++ {
			g.cells = append(g.cells, [2]int{wi, v})
			cost = append(cost, float64(len(w.Source)))
		}
	}
	// Strata of one workload's variants: each pass compiles all 31
	// workloads once.
	g.cyc = newCycler(newRNG(seed, 2), cost, matrixVariants)
	return g
}

func (g *compileCold) next() op {
	c := g.cells[g.cyc.next()]
	w := allWorkloads[c[0]]
	u := unit{w: w, v: c[1], source: g.r.float() < sourceShare,
		memWords: w.MemWords + memStride*(g.cyc.round+1)}
	return op{kind: opCompile, units: []unit{u}}
}

// compileColdWarmup compiles each workload's default build at its own
// memory size, a key no timed round uses (rounds add memStride).
func compileColdWarmup(uint64, map[string]goldenCell) []unit {
	var us []unit
	for _, w := range allWorkloads {
		us = append(us, unit{w: w, v: variantDefault, memWords: w.MemWords})
	}
	return us
}

// ---------------------------------------------------------------------
// simulate-warm

// injectShare is the share of idem simulate units that carry faults.
const injectShare = 0.5

type simulateWarm struct {
	r     *rng
	cells [][2]int // (workload, scheme)
	span  []int64  // fault-free dynamic instructions of each idem cell
	cyc   *cycler
}

func newSimulateWarm(seed uint64, golden map[string]goldenCell) *simulateWarm {
	g := &simulateWarm{r: newRNG(seed, 1)}
	var cost []float64
	for wi, w := range allWorkloads {
		for si, s := range schemes {
			g.cells = append(g.cells, [2]int{wi, si})
			gc := golden[w.Name+"/"+goldenScheme(s)]
			cost = append(cost, float64(gc.DynInstrs))
			g.span = append(g.span, gc.DynInstrs)
		}
	}
	g.cyc = newCycler(newRNG(seed, 2), cost, len(schemes))
	return g
}

// goldenScheme names the machine_digests.json cell a scheme's fault-free
// run corresponds to.
func goldenScheme(s string) string {
	switch s {
	case "none":
		return "plain"
	case "idem":
		return "idem-rec"
	}
	return s
}

func (g *simulateWarm) next() op {
	ci := g.cyc.next()
	c := g.cells[ci]
	u := unit{simulate: true, w: allWorkloads[c[0]], scheme: schemes[c[1]]}
	if u.scheme == "idem" && g.r.float() < injectShare {
		n := 1 + g.r.intn(2)
		u.watchdog = g.span[ci]
		for i := 0; i < n; i++ {
			u.injs = append(u.injs, g.injection(g.span[ci]))
		}
	}
	return op{kind: opSimulate, units: []unit{u}}
}

// injection draws one fault placed uniformly over the fault-free run.
func (g *simulateWarm) injection(span int64) server.InjectionSpec {
	r := g.r
	inj := server.InjectionSpec{Model: injectModels[r.intn(len(injectModels))]}
	inj.Step = 1 + int64(r.next()%uint64(max(span-1, 1)))
	bit := func() uint64 { return 1 << r.intn(64) }
	switch inj.Model {
	case "reg", "boundary":
		inj.Mask = bit()
	case "burst":
		width := 2 + r.intn(3)
		inj.Mask = (uint64(1)<<width - 1) << r.intn(64)
	case "nested":
		inj.Mask, inj.After, inj.NestedMask = bit(), 1, bit()
	}
	return inj
}

// simulateWarmWarmup compiles every build the timed phase simulates.
func simulateWarmWarmup(uint64, map[string]goldenCell) []unit {
	var us []unit
	for _, w := range allWorkloads {
		us = append(us, unit{w: w, v: variantDefault}, unit{w: w, v: variantPlain})
	}
	return us
}

// ---------------------------------------------------------------------
// mixed-churn

// mixed-churn follows the traffic of idemload, the repository's load
// generator for the service (cmd/idemload), whose default campaign is
// the one BENCH_serve.json records:
//
//   - the op mix is idemload's default -mix 45,40,15 (compile, simulate,
//     batch), with a third of the batch share posted as jobs instead;
//   - a batch holds 2-4 units, each a compile or a simulate with equal
//     odds, as idemload's batches do;
//   - compile keys are the 9 verify-matrix variants of the 31 workloads
//     at their own memory size (279 keys), sent by workload name as
//     idemload sends them, and drawn with a Zipf skew over a seeded
//     ranking. The skew and the cache bound are set so that about 95% of
//     cache lookups hit memory, the hit ratio BENCH_serve.json measured
//     for idemload's default campaign, while the tail still evicts and
//     comes back from the disk store or is compiled afresh.
//
// The ranking is a cycler round over per-workload strata: every 31
// consecutive ranks hold one key of each workload, so whichever keys a
// seed makes hot, the hot set costs about the same to serve. Simulate
// units are "short": they cycle through the workloads whose plain run is
// under mixedShortDyn instructions, under none and idem. Every idem run
// leaves its instrumented program's predecode memo behind (see
// README.md), so a skewed draw would make the live heap depend on which
// workloads the seed made hot.
const (
	mixedZipfS     = 1.2
	mixedShortDyn  = 500_000 // "short" simulate: plain run under this many instructions
	mixedBatchMin  = 2
	mixedBatchSpan = 3 // batches hold mixedBatchMin to mixedBatchMin+mixedBatchSpan-1 units
	mixedPrefill   = 128
)

// Op mix of mixed-churn: the probability of each kind.
var mixedMix = [...]struct {
	kind opKind
	p    float64
}{{opCompile, 0.45}, {opSimulate, 0.40}, {opBatch, 0.10}, {opJob, 0.05}}

type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	z := zipf{cdf: make([]float64, n)}
	sum := 0.0
	for i := range z.cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

func (z zipf) draw(r *rng) int {
	return min(sort.SearchFloat64s(z.cdf, r.float()), len(z.cdf)-1)
}

type mixedChurn struct {
	r    *rng
	keys []unit // compile keys by Zipf rank
	zk   zipf
	sims []unit // short simulate cells
	sc   *cycler
}

func newMixedChurn(seed uint64, golden map[string]goldenCell) *mixedChurn {
	g := &mixedChurn{r: newRNG(seed, 1)}
	var keys []unit
	var keyCost []float64
	for _, w := range allWorkloads {
		for v := 0; v < matrixVariants; v++ {
			keys = append(keys, unit{w: w, v: v, memWords: w.MemWords})
			keyCost = append(keyCost, float64(len(w.Source)))
		}
		if golden[w.Name+"/plain"].DynInstrs < mixedShortDyn {
			g.sims = append(g.sims,
				unit{simulate: true, w: w, scheme: "none"},
				unit{simulate: true, w: w, scheme: "idem"})
		}
	}
	rank := newCycler(newRNG(seed, 2), keyCost, matrixVariants)
	for range keys {
		g.keys = append(g.keys, keys[rank.next()])
	}
	g.zk = newZipf(len(g.keys), mixedZipfS)
	cost := make([]float64, len(g.sims))
	for i, u := range g.sims {
		cost[i] = float64(golden[u.w.Name+"/"+goldenScheme(u.scheme)].DynInstrs)
	}
	g.sc = newCycler(newRNG(seed, 3), cost, 2)
	return g
}

func (g *mixedChurn) compileUnit() unit { return g.keys[g.zk.draw(g.r)] }

func (g *mixedChurn) simUnit() unit { return g.sims[g.sc.next()] }

func (g *mixedChurn) next() op {
	x := g.r.float()
	kind := opJob
	acc := 0.0
	for _, m := range mixedMix {
		acc += m.p
		if x < acc {
			kind = m.kind
			break
		}
	}
	switch kind {
	case opCompile:
		return op{kind: kind, units: []unit{g.compileUnit()}}
	case opSimulate:
		return op{kind: kind, units: []unit{g.simUnit()}}
	}
	us := make([]unit, mixedBatchMin+g.r.intn(mixedBatchSpan))
	for i := range us {
		if g.r.intn(2) == 0 {
			us[i] = g.compileUnit()
		} else {
			us[i] = g.simUnit()
		}
	}
	return op{kind: kind, units: us}
}

// mixedChurnWarmup compiles every simulate build, then the
// mixedPrefill hottest keys from the coldest of them to the hottest, so
// the timed phase starts in the steady state: the hottest keys in
// memory, the rest of the prefill only on disk, the tail not built yet.
func mixedChurnWarmup(seed uint64, golden map[string]goldenCell) []unit {
	g := newMixedChurn(seed, golden)
	var us []unit
	for _, s := range g.sims {
		v := variantPlain
		if s.scheme == "idem" {
			v = variantDefault
		}
		us = append(us, unit{w: s.w, v: v})
	}
	for i := mixedPrefill - 1; i >= 0; i-- {
		us = append(us, g.keys[i])
	}
	return us
}
