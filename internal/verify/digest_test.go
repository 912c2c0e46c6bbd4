package verify

// Differential pin of the validator: every (workload, variant) build of
// the verify matrix, plus the mutation programs the self-tests attack it
// with, is digested — the provenance pre-pass facts at every region
// start, the region count and the sorted (Region, PC, Kind) of every
// violation — and compared against testdata/verify_digests.json. Loc is
// left out: it names fresh symbol ids, which are identities, not facts.
// Any change to the analysis' results, however the abstract state is
// represented, shows up here naming the exact build that diverged.
//
// Regenerate with:  go test -run TestVerifyDigests -update-digests ./internal/verify
// (only legitimate when a change intentionally alters what the validator
// proves.)

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"idemproc/internal/codegen"
	"idemproc/internal/core"
	"idemproc/internal/isa"
	"idemproc/internal/verify/verifytest"
	"idemproc/internal/workloads"
)

var updateDigests = flag.Bool("update-digests", false, "rewrite testdata/verify_digests.json from the current validator")

const digestPath = "testdata/verify_digests.json"

// regionStarts lists the first in-region pc of every region Verify
// analyzes, in the order it analyzes them.
func regionStarts(p *codegen.Program) []int {
	var starts []int
	add := func(entry int) {
		if p.Instrs[entry].Op == isa.MARK {
			entry++
		}
		starts = append(starts, entry)
	}
	add(p.Entry)
	for pc, in := range p.Instrs {
		if in.Op == isa.MARK && in.Shadow == 0 {
			add(pc)
		}
	}
	return starts
}

// provText renders the pre-pass facts at pc canonically: non-empty
// register facts by register, then non-empty memory facts by address.
func provText(vf *verifier, pc int) string {
	ps := &vf.prov[pc]
	if !ps.reached {
		return "-"
	}
	var b strings.Builder
	for r, f := range ps.regs {
		if f != (provReg{}) {
			fmt.Fprintf(&b, "r%d=%d/%t/%d;", r, f.obj, f.ck, f.cv)
		}
	}
	facts := slices.Clone(ps.mem)
	sort.Slice(facts, func(i, j int) bool { return facts[i].addr < facts[j].addr })
	for _, m := range facts {
		if m.f != (provReg{}) {
			fmt.Fprintf(&b, "m%d=%d/%t/%d;", m.addr, m.f.obj, m.f.ck, m.f.cv)
		}
	}
	return b.String()
}

// verifyDigest fingerprints everything the validator proves about p.
func verifyDigest(p *codegen.Program) string {
	h := sha256.New()
	vf := newVerifier(p)
	for _, s := range regionStarts(p) {
		if s < len(p.Instrs) {
			fmt.Fprintf(h, "@%d:%s\n", s, provText(vf, s))
		}
	}
	rep := Verify(p)
	fmt.Fprintf(h, "regions=%d skipped=%t\n", rep.Regions, rep.Skipped)
	for _, v := range rep.Violations {
		fmt.Fprintf(h, "v %d %d %d\n", v.Region, v.PC, v.Kind)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestPrograms returns every program the golden file pins, by key.
func digestPrograms(t *testing.T) map[string]func() *codegen.Program {
	progs := map[string]func() *codegen.Program{}
	for _, m := range verifytest.Matrix() {
		for _, w := range workloads.All() {
			m, w := m, w
			progs[w.Name+"/"+m.Name] = func() *codegen.Program { return compile(t, w, m.MO) }
		}
	}
	for _, w := range workloads.All() {
		w := w
		progs["relaxed-alloc/"+w.Name] = func() *codegen.Program {
			return compile(t, w, codegen.ModuleOptions{Idempotent: true, Core: core.DefaultOptions(), RelaxedAlloc: true})
		}
	}
	progs["mutation/drop-mark"] = func() *codegen.Program { return dropMarkMutant(t) }
	progs["mutation/retarget-spill-store"] = func() *codegen.Program { return retargetSpillMutant(t) }
	progs["mutation/bad-branch"] = func() *codegen.Program { return badBranchMutant(t) }
	return progs
}

// TestVerifyDigests compares every digest against the golden file.
func TestVerifyDigests(t *testing.T) {
	progs := digestPrograms(t)
	got := make(map[string]string, len(progs))
	for key, build := range progs {
		got[key] = "no-program"
		if p := build(); p != nil {
			got[key] = verifyDigest(p)
		}
	}

	if *updateDigests {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), digestPath)
		return
	}

	blob, err := os.ReadFile(digestPath)
	if err != nil {
		t.Fatalf("read %s (generate with -update-digests): %v", digestPath, err)
	}
	var want map[string]string
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("parse %s: %v", digestPath, err)
	}
	if len(want) != len(got) {
		t.Errorf("digest count mismatch: golden has %d, run produced %d", len(want), len(got))
	}
	for key, wd := range want {
		gd, ok := got[key]
		if !ok {
			t.Errorf("%s: missing from current run", key)
			continue
		}
		if gd != wd {
			t.Errorf("%s: validator results diverged (want %s, got %s)", key, wd, gd)
		}
	}
}
