// Prometheus metrics for idemd: per-endpoint request/error counters and
// latency histograms, an in-flight gauge, shed (429) counts, the job
// table's counters and the compile cache's counters. The registrations
// below are the single source of the exposition (docs/service.md
// catalogs it); internal/metrics renders it.
package server

import (
	"strconv"
	"time"

	"idemproc/internal/buildcache"
	"idemproc/internal/jobs"
	"idemproc/internal/metrics"
)

// latencyBuckets are the histogram upper bounds in seconds (a +Inf
// bucket is implicit).
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// chunkBuckets are the per-delivery result-count upper bounds for the
// job poll/stream chunk histogram (bounded by MaxBatchUnits).
var chunkBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// scrape is what one render reads from the cache and the job table,
// each snapshotted once.
type scrape struct {
	cache buildcache.Stats
	jobs  jobs.Stats
}

// Metrics is the daemon's metric registry.
type Metrics struct {
	reg      *metrics.Registry[scrape]
	requests *metrics.CounterVec
	errors   *metrics.CounterVec
	latency  *metrics.HistogramVec
	chunks   *metrics.HistogramVec
	inflight *metrics.Gauge
	shed     *metrics.Counter
	// simPreempted counts simulations stopped early by request
	// cancellation or deadline (machine.ErrPreempted).
	simPreempted *metrics.Counter
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	start := time.Now()
	r := metrics.NewRegistry[scrape]()
	m := &Metrics{reg: r}
	m.requests = r.CounterVec("idemd_http_requests_total", "Requests served, by path and status code.", "path", "code")
	m.errors = r.CounterVec("idemd_http_request_errors_total", "4xx/5xx responses, by path.", "path")
	m.latency = r.Fixed(9).HistogramVec("idemd_http_request_duration_seconds", "Request latency histogram, by path.", latencyBuckets, "path")
	m.chunks = r.HistogramVec("idemd_jobs_chunk_units", "Job results per delivery chunk, by mode (poll/stream).", chunkBuckets, "mode")

	r.GaugeFunc("idemd_jobs_active", "Jobs currently running.", func(s scrape) int64 { return s.jobs.Active })
	r.GaugeFunc("idemd_jobs_tracked", "Jobs in the table (running + finished awaiting TTL).", func(s scrape) int64 { return s.jobs.Tracked })
	r.CounterFunc("idemd_jobs_completed_total", "Jobs that delivered every unit.", func(s scrape) int64 { return s.jobs.Completed })
	r.CounterFunc("idemd_jobs_canceled_total", "Jobs canceled via DELETE.", func(s scrape) int64 { return s.jobs.Canceled })
	r.CounterFunc("idemd_jobs_failed_total", "Jobs failed by an external feeder.", func(s scrape) int64 { return s.jobs.Failed })
	r.CounterFunc("idemd_jobs_reaped_total", "Finished jobs removed after their TTL.", func(s scrape) int64 { return s.jobs.Reaped })
	r.CounterFunc("idemd_jobs_resumed_total", "Journaled jobs resumed mid-flight after a restart.", func(s scrape) int64 { return s.jobs.ResumedJobs })
	r.CounterFunc("idemd_jobs_resumed_units_total", "Unit results reloaded from journals instead of re-executed.", func(s scrape) int64 { return s.jobs.ResumedUnits })

	m.inflight = r.Gauge("idemd_http_inflight_requests", "Requests currently being served.")
	m.shed = r.Counter("idemd_http_shed_total", "Requests rejected with 429 by the concurrency limiter.")
	m.simPreempted = r.Counter("idemd_sim_preempted_total", "Simulations stopped early by request cancellation or deadline.")

	r.CounterFunc("idemd_buildcache_hits_total", "Compile cache hits.", func(s scrape) int64 { return s.cache.Hits })
	r.CounterFunc("idemd_buildcache_misses_total", "Compile cache misses (builds started: compile or disk load).", func(s scrape) int64 { return s.cache.Misses })
	r.CounterFunc("idemd_buildcache_evictions_total", "Entries evicted by the byte bound.", func(s scrape) int64 { return s.cache.Evictions })
	r.GaugeFunc("idemd_buildcache_entries", "Resident cache entries.", func(s scrape) int64 { return int64(s.cache.Distinct) })
	r.GaugeFunc("idemd_buildcache_bytes", "Estimated resident bytes of completed entries.", func(s scrape) int64 { return s.cache.BytesInUse })
	r.GaugeFunc("idemd_buildcache_max_bytes", "Configured cache byte bound (0 = unbounded).", func(s scrape) int64 { return s.cache.MaxBytes })
	r.Fixed(9).CounterFunc("idemd_buildcache_compile_seconds_total", "Wall time spent compiling, summed across workers.", func(s scrape) int64 { return int64(s.cache.CompileTime) })
	r.CounterFunc("idemd_buildcache_compiles_total", "Actual codegen runs (misses not served by the disk tier).", func(s scrape) int64 { return s.cache.Compiles })
	r.CounterFunc("idemd_buildcache_disk_hits_total", "Cache misses served from a persisted artifact.", func(s scrape) int64 { return s.cache.DiskHits })
	r.CounterFunc("idemd_buildcache_disk_misses_total", "Disk-tier lookups not served (no artifact, stale, or corrupt).", func(s scrape) int64 { return s.cache.DiskMisses })
	r.CounterFunc("idemd_buildcache_disk_writes_total", "Artifacts persisted by write-behind.", func(s scrape) int64 { return s.cache.DiskWrites })
	r.CounterFunc("idemd_buildcache_disk_corrupt_total", "Invalid artifacts found and pruned (subset of disk misses).", func(s scrape) int64 { return s.cache.DiskCorrupt })
	r.CounterFunc("idemd_verify_checked_total", "Programs re-checked by the translation validator (fresh compiles and decoded artifacts).", func(s scrape) int64 { return s.cache.VerifyChecked })
	r.CounterFunc("idemd_verify_failed_total", "Validator runs that found criterion violations.", func(s scrape) int64 { return s.cache.VerifyFailed })
	r.CounterFunc("idemd_verify_rejected_artifacts_total", "Decode-clean disk artifacts pruned after failing verification (subset of failed).", func(s scrape) int64 { return s.cache.VerifyRejectedArtifacts })
	r.CounterFunc("idemd_verify_nanos_total", "Wall time spent inside the translation validator, nanoseconds.", func(s scrape) int64 { return s.cache.VerifyNanos })

	r.Fixed(3).GaugeFunc("idemd_uptime_seconds", "Seconds since process start.", func(scrape) int64 { return time.Since(start).Milliseconds() })
	return m
}

// ObserveChunk records one job result delivery of n units via mode
// ("poll" or "stream").
func (m *Metrics) ObserveChunk(mode string, n int) { m.chunks.With(mode).Observe(int64(n)) }

// Observe records one finished request.
func (m *Metrics) Observe(path string, code int, d time.Duration) {
	m.requests.With(path, strconv.Itoa(code)).Inc()
	errs := m.errors.With(path) // every observed path renders, with 0 errors too
	if code >= 400 {
		errs.Inc()
	}
	m.latency.With(path).Observe(int64(d))
}

// Shed records one load-shed (429) rejection; the rejection is also
// Observed like any response.
func (m *Metrics) Shed() { m.shed.Inc() }

// InFlight tracks the in-flight request gauge; call the returned func on
// completion.
func (m *Metrics) InFlight() func() {
	m.inflight.Add(1)
	return func() { m.inflight.Add(-1) }
}

// InFlightNow reads the gauge (tests poll this through /metrics).
func (m *Metrics) InFlightNow() int64 { return m.inflight.Load() }

// SimPreempted records one simulation stopped early by cancellation.
func (m *Metrics) SimPreempted() { m.simPreempted.Inc() }

// SimPreemptedNow reads the preemption counter (tests poll this).
func (m *Metrics) SimPreemptedNow() int64 { return m.simPreempted.Load() }

// Render emits the Prometheus text exposition from one snapshot each of
// the cache and the job table.
func (m *Metrics) Render(cache buildcache.Stats, js jobs.Stats) string {
	return m.reg.Render(scrape{cache: cache, jobs: js})
}
