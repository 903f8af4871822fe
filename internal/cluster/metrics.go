package cluster

import (
	"slices"

	"softcache/internal/prom"
)

// routerMetrics holds the router's own counters. Each is registered once
// in reg, which renders /metrics together with the per-shard breaker,
// probe, failure and residency series; the proxy path updates a counter
// with one atomic add and no lookup.
type routerMetrics struct {
	reg             prom.Registry
	requests        *prom.Counter // proxied requests accepted by the router
	retries         *prom.Counter // failed attempts retried on another replica
	hedges          *prom.Counter // hedge attempts launched
	hedgeWins       *prom.Counter // hedge responses relayed to the client
	hedgeLosses     *prom.Counter // primary responses relayed after a hedge launched
	rerouted        *prom.Counter // responses served off the key's home shard
	budgetExhausted *prom.Counter // retries/hedges denied by the retry budget
	errors          *prom.Counter // 502s: every attempt failed
	streamed        *prom.Counter // unbuffered pass-through requests (/v1/simulate/trace)
	resultHits      *prom.Counter // relayed responses stamped X-Softcache-Result: hit
	resultMisses    *prom.Counter // relayed responses stamped X-Softcache-Result: miss
}

// newRouterMetrics registers the router counters, then the series of
// each shard of the fleet New built, in shard order.
func newRouterMetrics(rt *Router) *routerMetrics {
	m := &routerMetrics{}
	r := &m.reg
	m.requests = r.Counter("softcache_router_requests_total")
	m.retries = r.Counter("softcache_router_retries_total")
	m.hedges = r.Counter("softcache_router_hedges_total")
	m.hedgeWins = r.Counter("softcache_router_hedge_wins_total")
	m.hedgeLosses = r.Counter("softcache_router_hedge_losses_total")
	m.rerouted = r.Counter("softcache_router_rerouted_total")
	m.budgetExhausted = r.Counter("softcache_router_retry_budget_exhausted_total")
	m.errors = r.Counter("softcache_router_errors_total")
	m.streamed = r.Counter("softcache_router_streamed_total")
	// Fleet-level result-cache traffic, tallied off the relayed
	// X-Softcache-Result header: what fraction of answered requests were
	// fetched from a shard's durable result cache vs recomputed.
	m.resultHits = r.Counter("softcache_router_result_hits_total")
	m.resultMisses = r.Counter("softcache_router_result_misses_total")

	shards := make([]string, 0, len(rt.states))
	for s := range rt.states {
		shards = append(shards, s)
	}
	slices.Sort(shards)
	for _, s := range shards {
		st := rt.states[s]
		r.CounterFunc("softcache_router_breaker_opens_total", st.br.Opens, "shard", s)
		r.GaugeFunc("softcache_router_breaker_open", func() int64 { return oneIf(st.br.State() == breakerOpen) }, "shard", s)
		r.GaugeFunc("softcache_router_shard_up", func() int64 { return oneIf(st.probeOK.Load()) }, "shard", s)
		st.failures = r.Counter("softcache_router_shard_failures_total", "shard", s)
		// Residency observability: how many distinct trace keys each
		// shard owns among those the router has routed, so a failover
		// decision's cache-warmth cost is measurable rather than guessed.
		r.GaugeFunc("softcache_router_shard_keys", func() int64 { return rt.shardKeys(s) }, "shard", s)
	}
	return m
}

// oneIf renders a condition as a 0/1 gauge value.
func oneIf(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
