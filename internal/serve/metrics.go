package serve

import (
	"time"

	"softcache/internal/prom"
	"softcache/internal/resultcache"
)

// endpoint indexes the per-endpoint counters.
type endpoint int

const (
	epSimulate endpoint = iota
	epSimulateTrace
	epSweep
	epWorkloads
	epHealthz
	epMetrics
	epCount
)

func (e endpoint) String() string {
	switch e {
	case epSimulate:
		return "simulate"
	case epSimulateTrace:
		return "simulate_trace"
	case epSweep:
		return "sweep"
	case epWorkloads:
		return "workloads"
	case epHealthz:
		return "healthz"
	case epMetrics:
		return "metrics"
	}
	return "unknown"
}

// serverMetrics holds the daemon's own series: requests and outcomes per
// endpoint, latency totals, and pool occupancy. Each is registered once
// in reg, which renders /metrics; handlers update them with one atomic
// add and no lookup.
type serverMetrics struct {
	reg      prom.Registry
	requests [epCount]*prom.Counter
	failures [epCount]*prom.Counter // responses with status >= 400
	latency  [epCount]*prom.Seconds
	rejected *prom.Counter // 429: queue full
	timeouts *prom.Counter // 504: per-request deadline
	panics   *prom.Counter // 500: simulation panic recovered by admitted
	inflight *prom.Gauge   // requests holding a worker slot
	queued   *prom.Gauge   // requests waiting for a worker slot
	// Streamed-trace decode volume (POST /v1/simulate/trace): records
	// decoded from request bodies and, for SCTZ bodies, chunks framed.
	traceRecords *prom.Counter
	traceChunks  *prom.Counter
}

// newServerMetrics registers the daemon's series, with those the trace
// and result caches own read from their Stats when /metrics renders.
// shardID labels the daemon in a fleet ("" outside cluster mode);
// results is nil when no result cache is configured, in which case its
// series render as zeros so dashboards see a stable set.
func newServerMetrics(shardID string, cache *TraceCache, results *resultcache.Cache) *serverMetrics {
	m := &serverMetrics{}
	r := &m.reg
	r.Gauge("softcache_shard_info", "shard", shardID).Add(1)
	for ep := endpoint(0); ep < epCount; ep++ {
		m.requests[ep] = r.Counter("softcache_requests_total", "endpoint", ep.String())
	}
	for ep := endpoint(0); ep < epCount; ep++ {
		m.failures[ep] = r.Counter("softcache_request_failures_total", "endpoint", ep.String())
	}
	for ep := endpoint(0); ep < epCount; ep++ {
		m.latency[ep] = r.Seconds("softcache_request_seconds_total", "endpoint", ep.String())
	}
	m.rejected = r.Counter("softcache_queue_rejections_total")
	m.timeouts = r.Counter("softcache_request_timeouts_total")
	m.panics = r.Counter("softcache_simulation_panics_total")
	m.inflight = r.Gauge("softcache_inflight_requests")
	m.queued = r.Gauge("softcache_queued_requests")
	m.traceRecords = r.Counter("softcache_trace_decode_records_total")
	m.traceChunks = r.Counter("softcache_trace_decode_chunks_total")

	r.CounterFunc("softcache_trace_cache_hits_total", func() uint64 { return cache.Stats().Hits })
	r.CounterFunc("softcache_trace_cache_misses_total", func() uint64 { return cache.Stats().Misses })
	r.CounterFunc("softcache_trace_decodes_total", func() uint64 { return cache.Stats().Decodes })
	r.CounterFunc("softcache_trace_cache_evictions_total", func() uint64 { return cache.Stats().Evictions })
	r.CounterFunc("softcache_trace_load_failures_total", func() uint64 { return cache.Stats().LoadFailures })
	r.GaugeFunc("softcache_trace_cache_bytes", func() int64 { return cache.Stats().Bytes })
	r.GaugeFunc("softcache_trace_cache_entries", func() int64 { return int64(cache.Stats().Entries) })
	// Residency headroom: budget alongside occupancy makes the
	// eviction pressure on this shard's cache a first-class signal for
	// failover decisions instead of a guess.
	r.GaugeFunc("softcache_trace_cache_budget_bytes", func() int64 { return cache.Stats().Budget })

	// Durable result cache (internal/resultcache). Hits are responses
	// served from the segment log (or a coalesced flight); misses are
	// simulations actually run through the cache; corruptions are records
	// that failed their CRC on read and degraded to a miss.
	rs := func() resultcache.Stats {
		if results == nil {
			return resultcache.Stats{}
		}
		return results.Stats()
	}
	r.CounterFunc("softcache_result_cache_hits_total", func() uint64 { return rs().Hits })
	r.CounterFunc("softcache_result_cache_misses_total", func() uint64 { return rs().Misses })
	r.CounterFunc("softcache_result_cache_stores_total", func() uint64 { return rs().Stores })
	r.CounterFunc("softcache_result_cache_evictions_total", func() uint64 { return rs().Evictions })
	r.CounterFunc("softcache_result_cache_corruptions_total", func() uint64 { return rs().Corruptions })
	r.GaugeFunc("softcache_result_cache_bytes", func() int64 { return rs().Bytes })
	r.GaugeFunc("softcache_result_cache_entries", func() int64 { return int64(rs().Entries) })
	r.GaugeFunc("softcache_result_cache_segments", func() int64 { return int64(rs().Segments) })
	return m
}

// observe records one finished request.
func (m *serverMetrics) observe(ep endpoint, status int, d time.Duration) {
	m.requests[ep].Add(1)
	m.latency[ep].Add(d)
	if status >= 400 {
		m.failures[ep].Add(1)
	}
}
