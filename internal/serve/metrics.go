package serve

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

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

// serverMetrics holds the daemon's own counters: requests and outcomes per
// endpoint, latency totals, and pool occupancy. All fields are atomics so
// handlers update them without a lock; /metrics renders a snapshot in the
// Prometheus text exposition format (hand-rolled — no client library, the
// format is just lines of "name{labels} value").
type serverMetrics struct {
	requests  [epCount]atomic.Uint64
	failures  [epCount]atomic.Uint64 // responses with status >= 400
	latencyNS [epCount]atomic.Int64
	rejected  atomic.Uint64 // 429: queue full
	timeouts  atomic.Uint64 // 504: per-request deadline
	panics    atomic.Uint64 // 500: simulation panic recovered by runKernel
	inflight  atomic.Int64  // requests holding a worker slot
	queued    atomic.Int64  // requests waiting for a worker slot
	// Streamed-trace decode volume (POST /v1/simulate/trace): records
	// decoded from request bodies and, for SCTZ bodies, chunks framed.
	traceRecords atomic.Uint64
	traceChunks  atomic.Uint64
}

// observe records one finished request.
func (m *serverMetrics) observe(ep endpoint, status int, d time.Duration) {
	m.requests[ep].Add(1)
	m.latencyNS[ep].Add(int64(d))
	if status >= 400 {
		m.failures[ep].Add(1)
	}
}

// WriteTo renders the counters (and the trace and result caches') as
// Prometheus text. shardID labels the daemon in a fleet ("" outside
// cluster mode); results is nil when no result cache is configured, in
// which case its series render as zeros so dashboards see a stable set.
func (m *serverMetrics) WriteTo(w io.Writer, cache *TraceCache, results *resultcache.Cache, shardID string) {
	fmt.Fprintf(w, "# TYPE softcache_shard_info gauge\nsoftcache_shard_info{shard=%q} 1\n", shardID)
	fmt.Fprintln(w, "# TYPE softcache_requests_total counter")
	for ep := endpoint(0); ep < epCount; ep++ {
		fmt.Fprintf(w, "softcache_requests_total{endpoint=%q} %d\n", ep, m.requests[ep].Load())
	}
	fmt.Fprintln(w, "# TYPE softcache_request_failures_total counter")
	for ep := endpoint(0); ep < epCount; ep++ {
		fmt.Fprintf(w, "softcache_request_failures_total{endpoint=%q} %d\n", ep, m.failures[ep].Load())
	}
	fmt.Fprintln(w, "# TYPE softcache_request_seconds_total counter")
	for ep := endpoint(0); ep < epCount; ep++ {
		secs := float64(m.latencyNS[ep].Load()) / float64(time.Second)
		fmt.Fprintf(w, "softcache_request_seconds_total{endpoint=%q} %.6f\n", ep, secs)
	}
	fmt.Fprintf(w, "# TYPE softcache_queue_rejections_total counter\nsoftcache_queue_rejections_total %d\n", m.rejected.Load())
	fmt.Fprintf(w, "# TYPE softcache_request_timeouts_total counter\nsoftcache_request_timeouts_total %d\n", m.timeouts.Load())
	fmt.Fprintf(w, "# TYPE softcache_simulation_panics_total counter\nsoftcache_simulation_panics_total %d\n", m.panics.Load())
	fmt.Fprintf(w, "# TYPE softcache_inflight_requests gauge\nsoftcache_inflight_requests %d\n", m.inflight.Load())
	fmt.Fprintf(w, "# TYPE softcache_queued_requests gauge\nsoftcache_queued_requests %d\n", m.queued.Load())
	fmt.Fprintf(w, "# TYPE softcache_trace_decode_records_total counter\nsoftcache_trace_decode_records_total %d\n", m.traceRecords.Load())
	fmt.Fprintf(w, "# TYPE softcache_trace_decode_chunks_total counter\nsoftcache_trace_decode_chunks_total %d\n", m.traceChunks.Load())

	cs := cache.Stats()
	fmt.Fprintf(w, "# TYPE softcache_trace_cache_hits_total counter\nsoftcache_trace_cache_hits_total %d\n", cs.Hits)
	fmt.Fprintf(w, "# TYPE softcache_trace_cache_misses_total counter\nsoftcache_trace_cache_misses_total %d\n", cs.Misses)
	fmt.Fprintf(w, "# TYPE softcache_trace_decodes_total counter\nsoftcache_trace_decodes_total %d\n", cs.Decodes)
	fmt.Fprintf(w, "# TYPE softcache_trace_cache_evictions_total counter\nsoftcache_trace_cache_evictions_total %d\n", cs.Evictions)
	fmt.Fprintf(w, "# TYPE softcache_trace_load_failures_total counter\nsoftcache_trace_load_failures_total %d\n", cs.LoadFailures)
	fmt.Fprintf(w, "# TYPE softcache_trace_cache_bytes gauge\nsoftcache_trace_cache_bytes %d\n", cs.Bytes)
	fmt.Fprintf(w, "# TYPE softcache_trace_cache_entries gauge\nsoftcache_trace_cache_entries %d\n", cs.Entries)
	// Residency headroom: budget alongside occupancy makes the
	// eviction pressure on this shard's cache a first-class signal for
	// failover decisions instead of a guess.
	fmt.Fprintf(w, "# TYPE softcache_trace_cache_budget_bytes gauge\nsoftcache_trace_cache_budget_bytes %d\n", cs.Budget)

	// Durable result cache (internal/resultcache). Hits are responses
	// served from the segment log (or a coalesced flight); misses are
	// simulations actually run through the cache; corruptions are records
	// that failed their CRC on read and degraded to a miss.
	var rs resultcache.Stats
	if results != nil {
		rs = results.Stats()
	}
	fmt.Fprintf(w, "# TYPE softcache_result_cache_hits_total counter\nsoftcache_result_cache_hits_total %d\n", rs.Hits)
	fmt.Fprintf(w, "# TYPE softcache_result_cache_misses_total counter\nsoftcache_result_cache_misses_total %d\n", rs.Misses)
	fmt.Fprintf(w, "# TYPE softcache_result_cache_stores_total counter\nsoftcache_result_cache_stores_total %d\n", rs.Stores)
	fmt.Fprintf(w, "# TYPE softcache_result_cache_evictions_total counter\nsoftcache_result_cache_evictions_total %d\n", rs.Evictions)
	fmt.Fprintf(w, "# TYPE softcache_result_cache_corruptions_total counter\nsoftcache_result_cache_corruptions_total %d\n", rs.Corruptions)
	fmt.Fprintf(w, "# TYPE softcache_result_cache_bytes gauge\nsoftcache_result_cache_bytes %d\n", rs.Bytes)
	fmt.Fprintf(w, "# TYPE softcache_result_cache_entries gauge\nsoftcache_result_cache_entries %d\n", rs.Entries)
	fmt.Fprintf(w, "# TYPE softcache_result_cache_segments gauge\nsoftcache_result_cache_segments %d\n", rs.Segments)
}
