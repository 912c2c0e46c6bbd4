// Fleet-level metrics for the front tier, on the same metrics core idemd
// uses. The front's view is complementary to the replicas': replicas
// report cache effectiveness and simulator work, the front reports where
// traffic went (per-backend request/latency/error counters), how the
// ring evolved (generation, rebalances) and how often routing had to
// fail over.
package shard

import (
	"strconv"
	"time"

	"idemproc/internal/jobs"
	"idemproc/internal/metrics"
)

// scrape is what one render reads from the router, the job table and
// the replicas, each snapshotted once.
type scrape struct {
	healthy map[string]int64
	jobs    jobs.Stats
	verify  VerifyTotals
}

// Metrics is the front tier's registry.
type Metrics struct {
	reg            *metrics.Registry[scrape]
	backendReqs    *metrics.CounterVec
	backendErrs    *metrics.CounterVec
	backendLatency *metrics.CounterVec
	paths          *metrics.CounterVec

	ringGen    *metrics.Gauge
	rebalances *metrics.Counter
	failovers  *metrics.Counter
	noReplica  *metrics.Counter
	rawRouted  *metrics.Counter
	subBatches *metrics.Counter
	subJobs    *metrics.Counter
	subRetries *metrics.Counter
	inflight   *metrics.Gauge
}

// NewMetrics returns an empty registry at ring generation 0.
func NewMetrics() *Metrics {
	start := time.Now()
	r := metrics.NewRegistry[scrape]()
	m := &Metrics{reg: r}
	m.backendReqs = r.CounterVec("idemfront_backend_requests_total", "Requests proxied, by backend.", "backend")
	m.backendErrs = r.CounterVec("idemfront_backend_errors_total", "Proxied requests that failed (transport error or 5xx), by backend.", "backend")
	m.backendLatency = r.Fixed(9).CounterVec("idemfront_backend_latency_seconds_total", "Summed proxied-request latency, by backend.", "backend")
	m.paths = r.CounterVec("idemfront_http_requests_total", "Responses served by the front, by path and status code.", "path", "code")
	r.GaugeVecFunc("idemfront_backend_healthy", "Backend health as seen by the router (1 ready, 0 out).", "backend", func(s scrape) map[string]int64 { return s.healthy })

	m.ringGen = r.Gauge("idemfront_ring_generation", "Monotonic generation of the effective (healthy) replica set.")
	m.rebalances = r.Counter("idemfront_rebalance_total", "Health transitions that changed the effective replica set.")
	m.failovers = r.Counter("idemfront_failover_total", "Requests rerouted off their ring owner.")
	m.noReplica = r.Counter("idemfront_no_replica_total", "Requests that exhausted every backend.")
	m.rawRouted = r.Counter("idemfront_raw_routed_total", "Requests routed by body hash (unparseable shape; replica answers canonically).")
	m.subBatches = r.Counter("idemfront_sub_batches_total", "Sub-batches fanned out to backends by /v1/batch splitting.")
	m.subJobs = r.Counter("idemfront_sub_jobs_total", "Sub-jobs submitted to backends by /v1/jobs mergers.")
	m.subRetries = r.Counter("idemfront_sub_job_retries_total", "Sub-jobs resubmitted to another backend after a replica failure.")
	m.inflight = r.Gauge("idemfront_inflight_requests", "Requests currently being served by the front.")
	r.GaugeFunc("idemfront_jobs_active", "Front jobs currently merging sub-job results.", func(s scrape) int64 { return s.jobs.Active })
	r.GaugeFunc("idemfront_jobs_tracked", "Front jobs in the table (running + terminal).", func(s scrape) int64 { return s.jobs.Tracked })
	r.CounterFunc("idemfront_jobs_completed_total", "Front jobs that delivered every unit.", func(s scrape) int64 { return s.jobs.Completed })
	r.CounterFunc("idemfront_jobs_canceled_total", "Front jobs canceled by DELETE.", func(s scrape) int64 { return s.jobs.Canceled })
	r.CounterFunc("idemfront_jobs_failed_total", "Front jobs failed (a sub-batch exhausted every replica).", func(s scrape) int64 { return s.jobs.Failed })
	r.CounterFunc("idemfront_jobs_reaped_total", "Terminal front jobs dropped by the TTL reaper.", func(s scrape) int64 { return s.jobs.Reaped })

	// The fleet's verification ledger keeps the idemd_ metric names so a
	// dashboard summing validator activity reads one series whether it
	// scrapes a replica or the front.
	r.CounterFunc("idemd_verify_checked_total", "Fleet-summed validator checks (scraped from healthy backends).", func(s scrape) int64 { return s.verify.Checked })
	r.CounterFunc("idemd_verify_failed_total", "Fleet-summed validator runs that found violations.", func(s scrape) int64 { return s.verify.Failed })
	r.CounterFunc("idemd_verify_rejected_artifacts_total", "Fleet-summed disk artifacts pruned after failing verification.", func(s scrape) int64 { return s.verify.RejectedArtifacts })
	r.GaugeFunc("idemfront_verify_scraped_backends", "Backends whose /metrics contributed to the verify totals this scrape.", func(s scrape) int64 { return int64(s.verify.Backends) })

	r.Fixed(3).GaugeFunc("idemfront_uptime_seconds", "Seconds since process start.", func(scrape) int64 { return time.Since(start).Milliseconds() })
	return m
}

// ObserveBackend records one proxied request to a backend.
func (m *Metrics) ObserveBackend(id string, d time.Duration, failed bool) {
	m.backendReqs.With(id).Inc()
	errs := m.backendErrs.With(id) // every backend renders, with 0 errors too
	if failed {
		errs.Inc()
	}
	m.backendLatency.With(id).Add(int64(d))
}

// Observe records one front-level response by path and status. The
// front keeps no latency histogram, so d is unused.
func (m *Metrics) Observe(path string, code int, _ time.Duration) {
	m.paths.With(path, strconv.Itoa(code)).Inc()
}

// RingGeneration bumps the generation counter (one health transition =
// one new effective assignment) and returns the new value.
func (m *Metrics) RingGeneration() int64 { return m.ringGen.Add(1) }

// Rebalance counts one membership-affecting health transition.
func (m *Metrics) Rebalance() { m.rebalances.Inc() }

// Failover counts one request rerouted off its ring owner.
func (m *Metrics) Failover() { m.failovers.Inc() }

// FailoversNow reads the failover counter (tests assert on it).
func (m *Metrics) FailoversNow() int64 { return m.failovers.Load() }

// NoReplica counts one request that exhausted every backend.
func (m *Metrics) NoReplica() { m.noReplica.Inc() }

// RawRouted counts one request routed by body hash because it did not
// parse as a known request shape (the owning replica produces the
// canonical error for it).
func (m *Metrics) RawRouted() { m.rawRouted.Inc() }

// SubBatch counts one sub-batch fanned out to a backend.
func (m *Metrics) SubBatch() { m.subBatches.Inc() }

// SubJob counts one sub-job submitted to a backend by a job merger.
func (m *Metrics) SubJob() { m.subJobs.Inc() }

// SubJobRetry counts one sub-job resubmitted to another backend after
// a replica-side failure.
func (m *Metrics) SubJobRetry() { m.subRetries.Inc() }

// SubJobRetriesNow reads the resubmission counter (tests assert on it).
func (m *Metrics) SubJobRetriesNow() int64 { return m.subRetries.Load() }

// InFlight tracks the front's in-flight gauge.
func (m *Metrics) InFlight() func() {
	m.inflight.Add(1)
	return func() { m.inflight.Add(-1) }
}

// VerifyTotals is the fleet-aggregated translation-validator ledger,
// summed from healthy backends' /metrics at render time (see
// Front.verifyTotals). Backends counts replicas whose whole page was
// summed, so dashboards can tell "fleet verified nothing" from "scrape
// failed".
type VerifyTotals struct {
	Checked, Failed, RejectedArtifacts int64
	Backends                           int
}

// Render emits the Prometheus text exposition; healthy maps backend ID
// to current health (1 ready, 0 out) so the gauge reflects the router's
// live view.
func (m *Metrics) Render(healthy map[string]int64, js jobs.Stats, vt VerifyTotals) string {
	return m.reg.Render(scrape{healthy: healthy, jobs: js, verify: vt})
}
