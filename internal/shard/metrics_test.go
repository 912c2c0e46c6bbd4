package shard

import (
	"os"
	"regexp"
	"testing"
	"time"

	"idemproc/internal/jobs"
)

// uptimeValue matches the one sample whose value depends on the clock.
var uptimeValue = regexp.MustCompile(`(?m)^(idemfront_uptime_seconds) \S+$`)

// TestFrontMetricsGolden pins the front's whole exposition: family
// order, HELP/TYPE text, label sets, series order and value formatting.
func TestFrontMetricsGolden(t *testing.T) {
	m := NewMetrics()
	m.ObserveBackend("r2", 30*time.Millisecond, false)
	m.ObserveBackend("r1", 1250*time.Microsecond, true)
	m.ObserveBackend("r2", 2*time.Second, true)
	m.ObserveBackend("r1", 4*time.Millisecond, false)
	m.Observe("/v1/simulate", 200, 0)
	m.Observe("/v1/compile", 200, 0)
	m.Observe("/v1/compile", 503, 0)
	m.Observe("/v1/compile", 200, 0)
	m.Observe("/v1/batch", 400, 0)
	m.RingGeneration()
	m.RingGeneration()
	m.Rebalance()
	for i := 0; i < 3; i++ {
		m.Failover()
	}
	m.NoReplica()
	m.RawRouted()
	m.SubBatch()
	m.SubBatch()
	m.SubJob()
	m.SubJobRetry()
	done := m.InFlight()
	defer done()

	healthy := map[string]int64{"r3": 1, "r1": 1, "r2": 0}
	js := jobs.Stats{Active: 2, Tracked: 5, Completed: 3, Canceled: 1, Failed: 1, Reaped: 4}
	vt := VerifyTotals{Checked: 12, Failed: 1, RejectedArtifacts: 1, Backends: 2}
	got := uptimeValue.ReplaceAllString(m.Render(healthy, js, vt), "$1 <uptime>")

	want, err := os.ReadFile("testdata/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("exposition differs from testdata/metrics.prom:\n%s", got)
	}
}
