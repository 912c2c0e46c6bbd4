package buildcache

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"idemproc/internal/codegen"
	"idemproc/internal/core"
	"idemproc/internal/machine"
	"idemproc/internal/workloads"
)

func flushDisk(t *testing.T, c *Cache) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.Disk().Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
}

func artifactFiles(t *testing.T, dir string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".art" {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestDiskTierWarmRestart is the core persistence contract: a second
// cache over the same directory (a simulated process restart) serves
// every previously compiled key from disk — zero compiles, one disk hit
// per key — and the served Programs are byte-identical to the originals.
func TestDiskTierWarmRestart(t *testing.T) {
	dir := t.TempDir()
	w := testWorkload(t)
	capped := core.DefaultOptions()
	capped.MaxRegionSize = 8
	configs := []codegen.ModuleOptions{
		{Core: core.DefaultOptions()},
		{Idempotent: true, Core: core.DefaultOptions()},
		{Idempotent: true, Core: capped},
	}

	c1 := NewBoundedDisk(0, dir)
	originals := make([][]byte, len(configs))
	for i, mo := range configs {
		p, st, err := c1.Compile(context.Background(), w, mo)
		if err != nil {
			t.Fatal(err)
		}
		originals[i] = codegen.EncodeProgram(p, st)
	}
	flushDisk(t, c1)
	if st := c1.Stats(); st.Compiles != int64(len(configs)) || st.DiskWrites != int64(len(configs)) {
		t.Fatalf("first run: %d compiles / %d writes, want %d of each", st.Compiles, st.DiskWrites, len(configs))
	}
	if got := len(artifactFiles(t, dir)); got != len(configs) {
		t.Fatalf("%d artifact files on disk, want %d", got, len(configs))
	}

	// "Restart": a fresh cache over the same directory.
	c2 := NewBoundedDisk(0, dir)
	for i, mo := range configs {
		p, st, err := c2.Compile(context.Background(), w, mo)
		if err != nil {
			t.Fatal(err)
		}
		if enc := codegen.EncodeProgram(p, st); !bytes.Equal(enc, originals[i]) {
			t.Fatalf("config %d: disk-served artifact differs from original compile", i)
		}
		// The served Program must run (predecode was repopulated).
		m := machine.New(p, machine.Config{BufferStores: true})
		if _, err := m.Run(w.Args...); err != nil {
			t.Fatalf("config %d: disk-served program failed to run: %v", i, err)
		}
	}
	st := c2.Stats()
	if st.Compiles != 0 {
		t.Fatalf("warm restart ran %d compiles, want 0", st.Compiles)
	}
	if st.DiskHits != int64(len(configs)) || st.DiskMisses != 0 || st.DiskCorrupt != 0 {
		t.Fatalf("warm restart: %d disk hits / %d misses / %d corrupt, want %d/0/0",
			st.DiskHits, st.DiskMisses, st.DiskCorrupt, len(configs))
	}
	// Memory-tier accounting is unchanged by the disk tier: each key was
	// a memory miss (entering the singleflight), then resident.
	if st.Misses != int64(len(configs)) || st.Distinct != len(configs) {
		t.Fatalf("warm restart: %d memory misses / %d distinct, want %d each", st.Misses, st.Distinct, len(configs))
	}
	// A repeat request is a plain memory hit: the disk is not re-read.
	if _, _, err := c2.Compile(context.Background(), w, configs[0]); err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.DiskHits != int64(len(configs)) {
		t.Fatalf("memory hit re-read the disk: %d disk hits", st.DiskHits)
	}
}

// TestDiskCorruptArtifactsRecompile covers the self-healing contract:
// truncated and bit-flipped artifacts count as corrupt (and misses), the
// invalid file is removed, and the request transparently recompiles to a
// correct Program.
func TestDiskCorruptArtifactsRecompile(t *testing.T) {
	w := testWorkload(t)
	mo := codegen.ModuleOptions{Idempotent: true, Core: core.DefaultOptions()}

	corruptions := []struct {
		name string
		mut  func(data []byte) []byte
	}{
		{"truncate", func(data []byte) []byte { return data[:len(data)/2] }},
		{"bitflip", func(data []byte) []byte {
			out := append([]byte{}, data...)
			out[len(out)*3/4] ^= 0x10 // flip inside the payload
			return out
		}},
		{"stale-version", func(data []byte) []byte {
			out := append([]byte{}, data...)
			out[len(artifactMagic)] ^= 0xff // the uvarint version byte
			return out
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c1 := NewBoundedDisk(0, dir)
			p, st, err := c1.Compile(context.Background(), w, mo)
			if err != nil {
				t.Fatal(err)
			}
			want := codegen.EncodeProgram(p, st)
			flushDisk(t, c1)

			files := artifactFiles(t, dir)
			if len(files) != 1 {
				t.Fatalf("%d artifacts, want 1", len(files))
			}
			data, err := os.ReadFile(files[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(files[0], tc.mut(data), 0o644); err != nil {
				t.Fatal(err)
			}

			c2 := NewBoundedDisk(0, dir)
			p2, st2, err := c2.Compile(context.Background(), w, mo)
			if err != nil {
				t.Fatalf("request over corrupt artifact: %v", err)
			}
			if !bytes.Equal(codegen.EncodeProgram(p2, st2), want) {
				t.Fatal("recompile after corruption produced a different artifact")
			}
			s := c2.Stats()
			if s.DiskCorrupt != 1 || s.DiskMisses != 1 || s.DiskHits != 0 {
				t.Fatalf("got %d corrupt / %d misses / %d hits, want 1/1/0", s.DiskCorrupt, s.DiskMisses, s.DiskHits)
			}
			if s.Compiles != 1 {
				t.Fatalf("got %d compiles, want 1 (transparent recompile)", s.Compiles)
			}
			// The recompile re-persists: after a flush the artifact is valid
			// again and a third cache serves it from disk.
			flushDisk(t, c2)
			c3 := NewBoundedDisk(0, dir)
			if _, _, err := c3.Compile(context.Background(), w, mo); err != nil {
				t.Fatal(err)
			}
			if s := c3.Stats(); s.DiskHits != 1 || s.Compiles != 0 {
				t.Fatalf("self-heal failed: %d disk hits / %d compiles, want 1/0", s.DiskHits, s.Compiles)
			}
		})
	}
}

// TestDiskMissingArtifactIsMissNotCorrupt distinguishes the cold-start
// case from corruption in the counters.
func TestDiskMissingArtifactIsMissNotCorrupt(t *testing.T) {
	c := NewBoundedDisk(0, t.TempDir())
	if _, _, err := c.Compile(context.Background(), testWorkload(t),
		codegen.ModuleOptions{Core: core.DefaultOptions()}); err != nil {
		t.Fatal(err)
	}
	// Join the write-behind before the temp dir is removed under it.
	flushDisk(t, c)
	if s := c.Stats(); s.DiskMisses != 1 || s.DiskCorrupt != 0 || s.Compiles != 1 {
		t.Fatalf("cold start: %d misses / %d corrupt / %d compiles, want 1/0/1", s.DiskMisses, s.DiskCorrupt, s.Compiles)
	}
}

// TestDiskErrorsNotPersisted: memoized compile failures stay memory-only
// (an error artifact would have nothing to serve).
func TestDiskErrorsNotPersisted(t *testing.T) {
	dir := t.TempDir()
	c := NewBoundedDisk(0, dir)
	w := workloads.Workload{Name: "broken-synthetic", Source: "func main(", MemWords: 1024}
	if _, _, err := c.Compile(context.Background(), w, codegen.ModuleOptions{Core: core.DefaultOptions()}); err == nil {
		t.Fatal("broken workload compiled successfully")
	}
	flushDisk(t, c)
	if files := artifactFiles(t, dir); len(files) != 0 {
		t.Fatalf("error entry persisted %d artifacts", len(files))
	}
}

// TestDiskDistinctFingerprintsDistinctArtifacts ties the fingerprint
// fail-closed pin to persistence: every distinguishable option set must
// map to its own artifact path.
func TestDiskDistinctFingerprintsDistinctArtifacts(t *testing.T) {
	d := newDisk(t.TempDir())
	w := testWorkload(t)
	capped := core.DefaultOptions()
	capped.MaxRegionSize = 8
	seen := map[string]int{}
	for i, mo := range []codegen.ModuleOptions{
		{Core: core.DefaultOptions()},
		{Idempotent: true, Core: core.DefaultOptions()},
		{Idempotent: true, Core: capped},
		{Idempotent: true, PureCalls: true, Core: core.DefaultOptions()},
	} {
		path := d.path(KeyOf(w, mo))
		if prev, dup := seen[path]; dup {
			t.Fatalf("configs %d and %d share artifact path %s", prev, i, path)
		}
		seen[path] = i
	}
	// Different memory sizes separate too.
	w2 := w
	w2.MemWords++
	if d.path(KeyOf(w, codegen.ModuleOptions{})) == d.path(KeyOf(w2, codegen.ModuleOptions{})) {
		t.Fatal("memWords not part of the artifact path")
	}
}

// TestDiskScan checks the warm-start scan: it reports valid artifacts
// and prunes invalid ones.
func TestDiskScan(t *testing.T) {
	dir := t.TempDir()
	c := NewBoundedDisk(0, dir)
	w := testWorkload(t)
	for _, mo := range []codegen.ModuleOptions{
		{Core: core.DefaultOptions()},
		{Idempotent: true, Core: core.DefaultOptions()},
	} {
		if _, _, err := c.Compile(context.Background(), w, mo); err != nil {
			t.Fatal(err)
		}
	}
	flushDisk(t, c)

	files := artifactFiles(t, dir)
	if len(files) != 2 {
		t.Fatalf("%d artifacts, want 2", len(files))
	}
	res := c.Disk().Scan()
	if res.Entries != 2 || res.Corrupt != 0 || res.Bytes <= 0 {
		t.Fatalf("scan of healthy store: %+v", res)
	}

	// Corrupt one file: the next scan counts and removes it.
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	res = c.Disk().Scan()
	if res.Entries != 1 || res.Corrupt != 1 {
		t.Fatalf("scan of damaged store: %+v", res)
	}
	if _, err := os.Stat(files[0]); !os.IsNotExist(err) {
		t.Fatalf("corrupt artifact not pruned: %v", err)
	}
	if got := len(artifactFiles(t, dir)); got != 1 {
		t.Fatalf("%d artifacts after prune, want 1", got)
	}
}

// TestDiskTierWithEviction: an evicted key rebuilds from disk, not the
// compiler — the disk tier turns eviction churn into cheap reloads.
func TestDiskTierWithEviction(t *testing.T) {
	dir := t.TempDir()
	w := testWorkload(t)
	configs := make([]codegen.ModuleOptions, 3)
	for i := range configs {
		o := core.DefaultOptions()
		o.MaxRegionSize = 8 * (i + 1)
		configs[i] = codegen.ModuleOptions{Idempotent: true, Core: o}
	}
	probe := New()
	if _, _, err := probe.Compile(context.Background(), w, configs[0]); err != nil {
		t.Fatal(err)
	}
	bound := probe.Stats().BytesInUse * 3 / 2

	c := NewBoundedDisk(bound, dir)
	for _, mo := range configs {
		if _, _, err := c.Compile(context.Background(), w, mo); err != nil {
			t.Fatal(err)
		}
	}
	flushDisk(t, c)
	if st := c.Stats(); st.Evictions == 0 {
		t.Skipf("bound %d evicted nothing; eviction covered elsewhere", bound)
	}
	// configs[0] was evicted; re-requesting it must reload from disk.
	before := c.Stats()
	if _, _, err := c.Compile(context.Background(), w, configs[0]); err != nil {
		t.Fatal(err)
	}
	after := c.Stats()
	if after.Compiles != before.Compiles {
		t.Fatalf("evicted key recompiled (%d -> %d compiles) instead of reloading", before.Compiles, after.Compiles)
	}
	if after.DiskHits != before.DiskHits+1 {
		t.Fatalf("evicted key did not hit disk: %d -> %d disk hits", before.DiskHits, after.DiskHits)
	}
}
