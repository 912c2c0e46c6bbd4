package server

import (
	"os"
	"regexp"
	"testing"
	"time"

	"idemproc/internal/buildcache"
	"idemproc/internal/jobs"
)

// uptimeValue matches the one sample whose value depends on the clock.
var uptimeValue = regexp.MustCompile(`(?m)^(idemd_uptime_seconds) \S+$`)

// TestMetricsGolden pins the whole exposition: family order, HELP/TYPE
// text, label sets, series order and value formatting. The sequence
// covers both histograms (latencies in several buckets and past the
// last bound, chunk sizes for both modes), every counter and the
// read-at-scrape families.
func TestMetricsGolden(t *testing.T) {
	m := NewMetrics()
	for _, o := range []struct {
		path string
		code int
		d    time.Duration
	}{
		{"/v1/simulate", 200, 1500 * time.Millisecond},
		{"/v1/compile", 200, 300 * time.Microsecond},
		{"/v1/compile", 200, 7 * time.Millisecond},
		{"/v1/compile", 400, 2 * time.Millisecond},
		{"/v1/simulate", 503, 12 * time.Second},
		{"/v1/simulate", 429, 0},
		{"/v1/compile", 200, 250 * time.Millisecond},
	} {
		m.Observe(o.path, o.code, o.d)
	}
	for _, c := range []struct {
		mode string
		n    int
	}{{"stream", 3}, {"poll", 1}, {"poll", 5}, {"stream", 300}, {"stream", 64}} {
		m.ObserveChunk(c.mode, c.n)
	}
	m.Shed()
	m.SimPreempted()
	m.SimPreempted()
	done := m.InFlight()
	defer done()

	cache := buildcache.Stats{
		Hits: 41, Misses: 9, Distinct: 7, CompileTime: 1234567891 * time.Nanosecond,
		Compiles: 6, Evictions: 2, BytesInUse: 65536, MaxBytes: 1 << 20,
		DiskHits: 3, DiskMisses: 6, DiskWrites: 5, DiskCorrupt: 1,
		VerifyChecked: 8, VerifyFailed: 1, VerifyRejectedArtifacts: 1, VerifyNanos: 987654321,
	}
	js := jobs.Stats{Active: 1, Tracked: 4, Completed: 2, Canceled: 1, Failed: 0, Reaped: 3, ResumedJobs: 1, ResumedUnits: 17}
	got := uptimeValue.ReplaceAllString(m.Render(cache, js), "$1 <uptime>")

	want, err := os.ReadFile("testdata/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("exposition differs from testdata/metrics.prom:\n%s", got)
	}
}
