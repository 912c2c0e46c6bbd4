package buildcache

import (
	"context"
	"testing"

	"idemproc/internal/codegen"
	"idemproc/internal/core"
	"idemproc/internal/isa"
	"idemproc/internal/verify"
	"idemproc/internal/workloads"
)

// invalidMutant compiles w and NOPs out a MARK such that the validator
// rejects the result — a decode-clean but semantically broken program.
func invalidMutant(t *testing.T, w workloads.Workload, mo codegen.ModuleOptions) *codegen.Program {
	t.Helper()
	p, _, err := codegen.CompileModuleOpts(w.Module(), "main", w.MemWords, mo)
	if err != nil {
		t.Fatalf("compile %s: %v", w.Name, err)
	}
	for pc, in := range p.Instrs {
		if in.Op != isa.MARK || in.Shadow != 0 {
			continue
		}
		q := *p
		q.Instrs = append([]isa.Instr(nil), p.Instrs...)
		q.Instrs[pc] = isa.Instr{Op: isa.NOP}
		q.Marks--
		if q.Marks > 0 && !verify.Verify(&q).OK() {
			return &q
		}
	}
	return nil
}

// TestVerifyRejectsInvalidArtifact: a disk artifact that decodes cleanly
// but fails verification is pruned and the request recompiles — never an
// error — with the rejection counted.
func TestVerifyRejectsInvalidArtifact(t *testing.T) {
	mo := codegen.ModuleOptions{Idempotent: true, Core: core.DefaultOptions()}
	var w workloads.Workload
	var mutant *codegen.Program
	for _, cand := range workloads.All() {
		if m := invalidMutant(t, cand, mo); m != nil {
			w, mutant = cand, m
			break
		}
	}
	if mutant == nil {
		t.Fatal("no workload yields a rejecting dropped-MARK mutant")
	}

	dir := t.TempDir()
	c := NewBoundedDisk(0, dir)
	key := KeyOf(w, mo)
	if err := c.disk.store(key, mutant, &codegen.BuildStats{}); err != nil {
		t.Fatalf("store mutant artifact: %v", err)
	}

	p, _, err := c.Compile(context.Background(), w, mo)
	if err != nil {
		t.Fatalf("Compile after artifact rejection: %v", err)
	}
	if rep := verify.Verify(p); !rep.OK() {
		t.Fatalf("recompiled program fails verification: %s", rep.Summary())
	}
	if !c.Verified(w, mo) {
		t.Error("recompiled entry not marked verified")
	}

	st := c.Stats()
	if st.VerifyRejectedArtifacts != 1 {
		t.Errorf("VerifyRejectedArtifacts = %d, want 1", st.VerifyRejectedArtifacts)
	}
	if st.VerifyFailed != 1 {
		t.Errorf("VerifyFailed = %d, want 1 (the artifact)", st.VerifyFailed)
	}
	if st.VerifyChecked != 2 {
		t.Errorf("VerifyChecked = %d, want 2 (artifact + fresh compile)", st.VerifyChecked)
	}
	if st.Compiles != 1 {
		t.Errorf("Compiles = %d, want 1 (rejection falls through to the compiler)", st.Compiles)
	}
	if st.DiskHits != 0 {
		t.Errorf("DiskHits = %d, want 0 (rejected load re-booked as a miss)", st.DiskHits)
	}

	// The pruned artifact is replaced by the fresh compile's write-behind;
	// a new cache must now serve a verified program from disk alone.
	closeCache(t, c)
	c2 := NewBoundedDisk(0, dir)
	if _, _, err := c2.Compile(context.Background(), w, mo); err != nil {
		t.Fatalf("Compile from replaced artifact: %v", err)
	}
	st2 := c2.Stats()
	if st2.Compiles != 0 || st2.DiskHits != 1 || st2.VerifyRejectedArtifacts != 0 {
		t.Errorf("replaced artifact not served cleanly: %+v", st2)
	}
	if !c2.Verified(w, mo) {
		t.Error("artifact-served entry not marked verified")
	}
}

// TestVerifyFullSkipsNonIdempotent: markless and relaxed-alloc builds
// have no contract to check and must not fail or count as checked.
func TestVerifyFullSkipsNonIdempotent(t *testing.T) {
	w, ok := workloads.ByName("bzip2")
	if !ok {
		t.Fatal("bzip2 workload missing")
	}
	c := New()
	for _, mo := range []codegen.ModuleOptions{
		{Core: core.DefaultOptions()},
		{Idempotent: true, Core: core.DefaultOptions(), RelaxedAlloc: true},
	} {
		if _, _, err := c.Compile(context.Background(), w, mo); err != nil {
			t.Fatalf("compile %+v: %v", mo, err)
		}
		if c.Verified(w, mo) {
			t.Errorf("uncheckable build %+v marked verified", mo)
		}
	}
	if st := c.Stats(); st.VerifyChecked != 0 || st.VerifyFailed != 0 {
		t.Errorf("uncheckable builds counted: %+v", st)
	}
}

// TestVerifyFullPassesSuite: the full workload suite compiles and
// verifies through a default cache.
func TestVerifyFullPassesSuite(t *testing.T) {
	mo := codegen.ModuleOptions{Idempotent: true, Core: core.DefaultOptions()}
	c := New()
	for _, w := range workloads.All() {
		if _, _, err := c.Compile(context.Background(), w, mo); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !c.Verified(w, mo) {
			t.Errorf("%s: not verified", w.Name)
		}
	}
	st := c.Stats()
	if st.VerifyFailed != 0 {
		t.Errorf("suite: %+v", st)
	}
	if st.VerifyChecked != int64(len(workloads.All())) {
		t.Errorf("VerifyChecked = %d, want %d", st.VerifyChecked, len(workloads.All()))
	}
}
