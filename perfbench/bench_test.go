package main

import (
	"bytes"
	"strings"
	"testing"

	"idemproc/internal/buildcache"
	"idemproc/internal/codegen"
	"idemproc/internal/server"
	"idemproc/internal/verify"
)

func testOracle(t *testing.T) *oracle {
	t.Helper()
	or, err := loadOracle("..")
	if err != nil {
		t.Fatal(err)
	}
	return or
}

// sequenceBytes renders the first n requests a workload sends for seed.
func sequenceBytes(wl *workloadDef, seed uint64, golden map[string]goldenCell, n int) []byte {
	seq := &sequence{src: wl.source(seed, golden)}
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		o := seq.next()
		buf.WriteString(o.path())
		buf.WriteByte(' ')
		buf.WriteString(opNames[o.kind])
		buf.WriteByte(' ')
		buf.Write(o.body)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestSeedDeterminesSequence: one seed yields a byte-identical request
// sequence, and another seed a different one.
func TestSeedDeterminesSequence(t *testing.T) {
	or := testOracle(t)
	for _, wl := range workloadDefs {
		a := sequenceBytes(wl, 7, or.golden, 600)
		b := sequenceBytes(wl, 7, or.golden, 600)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 produced two different sequences", wl.name)
		}
		if c := sequenceBytes(wl, 8, or.golden, 600); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 produced the same sequence", wl.name)
		}
	}
}

// TestCompileColdKeysDistinct: every compile-cold request is a distinct
// build, also from the warm-up builds, so none can hit the cache.
func TestCompileColdKeysDistinct(t *testing.T) {
	seq := &sequence{src: newCompileCold(3)}
	seen := map[buildcache.Key]bool{}
	for _, u := range compileColdWarmup(3, nil) {
		seen[buildcache.KeyOf(u.buildWorkload(), u.mo())] = true
	}
	for i := 0; i < 3*len(allWorkloads)*matrixVariants; i++ {
		u := seq.next().units[0]
		k := buildcache.KeyOf(u.buildWorkload(), u.mo())
		if seen[k] {
			t.Fatalf("request %d repeats build %+v", i, k)
		}
		seen[k] = true
	}
}

// TestOracleRejectsPlantedDigest: the oracle accepts the service's real
// answers and reports a planted wrong digest as a failure, so it cannot
// pass vacuously.
func TestOracleRejectsPlantedDigest(t *testing.T) {
	or := testOracle(t)
	w := allWorkloads[0]
	u := unit{w: w, v: variantDefault, memWords: w.MemWords}
	mo := variants[variantDefault].mo
	p, st, err := codegen.CompileModuleOpts(w.Module(), "main", w.MemWords, mo)
	if err != nil {
		t.Fatal(err)
	}
	rep := server.ReportForBuild(w, mo, st)
	rep.Verified = verify.Verify(p).OK()
	if err := or.checkCompile(u, rep); err != nil {
		t.Fatalf("real report rejected: %v", err)
	}
	key := expectedKey(w.Name, variantDefault)
	good := or.expected[key]
	or.expected[key] = strings.Repeat("0", len(good))
	if err := or.checkCompile(u, rep); err == nil {
		t.Fatal("planted wrong compile digest was not reported")
	}
	or.expected[key] = good

	sim := unit{simulate: true, w: w, scheme: "dmr"}
	cell := or.golden[w.Name+"/dmr"]
	good2 := &server.SimulateReport{Workload: w.Name, Scheme: "dmr", Result: cell.R0, Digest: cell}
	if err := or.checkSimulate(sim, good2); err != nil {
		t.Fatalf("golden simulate report rejected: %v", err)
	}
	planted := cell
	planted.Cycles++
	or.golden[w.Name+"/dmr"] = planted
	if err := or.checkSimulate(sim, good2); err == nil {
		t.Fatal("planted wrong simulate digest was not reported")
	}
	or.golden[w.Name+"/dmr"] = cell

	idem := unit{simulate: true, w: w, scheme: "idem"}
	wrong := &server.SimulateReport{Workload: w.Name, Scheme: "idem", Result: cell.R0 + 1, Digest: cell}
	wrong.Digest.R0 = wrong.Result
	if err := or.checkSimulate(idem, wrong); err == nil {
		t.Fatal("idem run with a wrong r0 was not reported")
	}

	batch := []byte(`{"results":[{"index":0},{"index":1}]}` + "\n")
	if err := checkStream([]byte("{\"index\":0}\n{\"index\":1}\n"), batch); err != nil {
		t.Fatalf("matching job stream rejected: %v", err)
	}
	if err := checkStream([]byte("{\"index\":0}\n"), batch); err == nil {
		t.Fatal("truncated job stream was not reported")
	}
}

// TestExpectedCoversMatrix: the compile oracle has a digest for every
// build the workloads can request.
func TestExpectedCoversMatrix(t *testing.T) {
	or := testOracle(t)
	for _, w := range allWorkloads {
		for v := range variants {
			if _, ok := or.expected[expectedKey(w.Name, v)]; !ok {
				t.Errorf("%s has no digest for %s", expectedFile, expectedKey(w.Name, v))
			}
		}
	}
}
