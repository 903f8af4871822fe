package serve

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"unsafe"

	"softcache/internal/flight"
	"softcache/internal/trace"
)

// recordMemBytes is the in-memory footprint of one decoded trace record,
// the unit the cache's byte budget is accounted in.
const recordMemBytes = int64(unsafe.Sizeof(trace.Record{}))

// entryOverheadBytes approximates the fixed per-entry cost (map slot, list
// element, entry struct, trace header) so a flood of tiny traces cannot
// slip under the budget for free.
const entryOverheadBytes = 256

// TraceCache is the daemon's decoded-trace store: a byte-budgeted LRU
// whose loads coalesce through flight.Group. The first request for a key
// decodes (or generates) the trace; every request that arrives while that
// load is in flight waits for it and shares the result, so N concurrent
// requests for one workload cost exactly one decode — the property the
// service E2E tests pin via the hit/decode counters.
//
// The cache follows flight's rules: a waiter's wait ends with its own
// ctx, and a load that fails or panics is neither cached nor shared — its
// caller gets the error (or the panic) and its waiters retry with their
// own loads.
type TraceCache struct {
	lru     traceLRU
	flights *flight.Group[string, *trace.Trace]

	hits         atomic.Uint64
	loads        atomic.Uint64
	loadFailures atomic.Uint64
}

// NewTraceCache returns a cache with the given byte budget (values below
// 1 MiB are raised to 1 MiB so a misconfigured budget cannot disable
// caching entirely).
func NewTraceCache(budget int64) *TraceCache {
	if budget < 1<<20 {
		budget = 1 << 20
	}
	c := &TraceCache{lru: traceLRU{
		budget:  budget,
		ll:      list.New(),
		entries: make(map[string]*list.Element),
	}}
	c.flights = flight.New[string, *trace.Trace](&c.lru)
	return c
}

// traceBytes estimates the resident size of a decoded trace.
func traceBytes(t *trace.Trace) int64 {
	return int64(len(t.Records))*recordMemBytes + int64(len(t.Name)) + entryOverheadBytes
}

// Get returns the trace for key, loading it with load on a miss.
// Concurrent Gets for the same key share one load call. ctx ends only this
// caller's wait: a load in flight runs to completion for its own caller
// (and the cache).
func (c *TraceCache) Get(ctx context.Context, key string, load func() (*trace.Trace, error)) (*trace.Trace, error) {
	tr, loaded, err := c.flights.Do(ctx, key, func() (tr *trace.Trace, err error) {
		c.loads.Add(1)
		failed := true // until load returns a trace; a panic keeps it set
		defer func() {
			if failed {
				c.loadFailures.Add(1)
			}
		}()
		tr, err = load()
		if err == nil && tr == nil {
			err = errors.New("serve: trace loader returned no trace")
		}
		failed = err != nil
		return tr, err
	})
	if err == nil && !loaded {
		c.hits.Add(1)
	}
	return tr, err
}

// traceLRU is the store behind the cache's flights: completed traces
// under a byte budget, least recently used evicted first. The newest
// entry always stays resident, so a single trace larger than the whole
// budget still serves requests instead of thrashing on every call.
type traceLRU struct {
	budget int64

	mu      sync.Mutex
	used    int64                    // guarded by mu
	ll      *list.List               // guarded by mu; front = most recently used
	entries map[string]*list.Element // guarded by mu; values are *lruEntry

	evictions atomic.Uint64
}

type lruEntry struct {
	key string
	tr  *trace.Trace
}

// Load returns the trace stored under key and marks it most recently used.
func (l *traceLRU) Load(key string) (*trace.Trace, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	el, ok := l.entries[key]
	if !ok {
		return nil, false
	}
	l.ll.MoveToFront(el)
	return el.Value.(*lruEntry).tr, true
}

// Store inserts tr as the most recently used entry and evicts down to the
// budget. A flight stores a key only after a claimed miss, so key is never
// already present. Callers holding an evicted *trace.Trace are unaffected:
// eviction only drops the cache's reference.
func (l *traceLRU) Store(key string, tr *trace.Trace) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries[key] = l.ll.PushFront(&lruEntry{key, tr})
	l.used += traceBytes(tr)
	for l.used > l.budget && l.ll.Len() > 1 {
		e := l.ll.Remove(l.ll.Back()).(*lruEntry)
		delete(l.entries, e.key)
		l.used -= traceBytes(e.tr)
		l.evictions.Add(1)
	}
}

// TraceCacheStats is a snapshot of the cache counters for /metrics.
// Misses and Decodes are the one count of loads run; Hits counts the Gets
// answered without running their own load.
type TraceCacheStats struct {
	Hits, Misses, Decodes, Evictions, LoadFailures uint64
	Bytes, Budget                                  int64
	Entries                                        int
}

// Stats snapshots the counters and current occupancy.
func (c *TraceCache) Stats() TraceCacheStats {
	c.lru.mu.Lock()
	bytes, entries := c.lru.used, c.lru.ll.Len()
	c.lru.mu.Unlock()
	loads := c.loads.Load()
	return TraceCacheStats{
		Hits:         c.hits.Load(),
		Misses:       loads,
		Decodes:      loads,
		Evictions:    c.lru.evictions.Load(),
		LoadFailures: c.loadFailures.Load(),
		Bytes:        bytes,
		Budget:       c.lru.budget,
		Entries:      entries,
	}
}
