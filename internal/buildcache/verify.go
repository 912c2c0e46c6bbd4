package buildcache

import (
	"time"

	"idemproc/internal/codegen"
	"idemproc/internal/verify"
)

// VerifyMode has no effect.
//
// Deprecated: the cache verifies every build; perfbench is the only user
// of this type, VerifyFull and SetVerifyMode.
type VerifyMode uint8

// VerifyFull has no effect.
//
// Deprecated: the cache verifies every build; see VerifyMode.
const VerifyFull VerifyMode = 2

// SetVerifyMode does nothing.
//
// Deprecated: the cache verifies every build; see VerifyMode.
func (c *Cache) SetVerifyMode(VerifyMode) {}

// runVerify checks p against the §2.1 criterion, maintaining the checked
// counter and the cost ledger (verifyNanos feeds the BENCH_serve.json
// verify_ns section). It returns nil when there is nothing to check:
// relaxed-alloc builds legitimately violate the register constraint, and
// markless programs carry no recovery contract.
func (c *Cache) runVerify(p *codegen.Program, mo codegen.ModuleOptions) *verify.Report {
	if p == nil || p.Marks == 0 || mo.RelaxedAlloc {
		return nil
	}
	c.verifyChecked.Add(1)
	t0 := time.Now()
	rep := verify.Verify(p)
	c.verifyNanos.Add(time.Since(t0).Nanoseconds())
	if rep.Skipped {
		return nil
	}
	if !rep.OK() {
		c.verifyFailed.Add(1)
	}
	return rep
}
