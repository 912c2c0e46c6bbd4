// Package verifytest holds the build matrix the translation validator is
// checked over. internal/verify's tests (TestWorkloadMatrixClean,
// TestVerifyDigests) and the repository's layer benchmarks
// (BenchmarkCompile, BenchmarkVerify) all take it from here, so they
// always cover the same builds.
package verifytest

import (
	"idemproc/internal/codegen"
	"idemproc/internal/core"
)

// Variant is one named ModuleOptions configuration of the matrix.
type Variant struct {
	Name string
	MO   codegen.ModuleOptions
}

// Matrix returns the ModuleOptions grid every workload must verify
// cleanly under: the paper's default configuration plus the scheme
// variants that change region shape (pure-call regions, no unroll,
// bounded regions, no loop heuristic, no redundancy elimination). Over
// the 31 workloads it gives 279 builds.
func Matrix() []Variant {
	withMax := func(n int) core.Options {
		o := core.DefaultOptions()
		o.MaxRegionSize = n
		return o
	}
	noRedElim := core.DefaultOptions()
	noRedElim.RedElim = false
	idem := func(o core.Options) codegen.ModuleOptions {
		return codegen.ModuleOptions{Idempotent: true, Core: o}
	}
	return []Variant{
		{"default", idem(core.DefaultOptions())},
		{"purecalls", codegen.ModuleOptions{Idempotent: true, Core: core.DefaultOptions(), PureCalls: true}},
		{"nounroll", idem(core.Options{LoopHeuristic: true, RedElim: true, CutAtCalls: true})},
		{"maxregion8", idem(withMax(8))},
		// The other MaxRegionSize tiers the service's load palette
		// requests: mid-size bounds split computations mid-expression,
		// stranding constants and spilled pointers on the far side of a
		// MARK — the cases internal/verify's pre-pass exists for.
		{"maxregion16", idem(withMax(16))},
		{"maxregion32", idem(withMax(32))},
		{"maxregion64", idem(withMax(64))},
		{"noloopheur", idem(core.Options{RedElim: true, UnrollLoops: true, CutAtCalls: true})},
		{"redelim-off", idem(noRedElim)},
	}
}
