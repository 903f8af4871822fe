// Package resultcache is the durable simulation-result cache behind the
// serving stack: a disk-backed key/value store whose values are fully
// rendered response bodies, so a repeat simulation is a lookup instead of
// a run — the paper's thesis (precompute the answer, then just fetch it)
// applied to the serving layer itself.
//
// Durability comes from an append-only segment log (see segment.go): every
// store appends one CRC-framed record, the in-memory index is rebuilt by
// scanning the segments on Open, a torn tail is truncated away, and any
// record that fails its CRC — at open time or on a later read — degrades
// to a miss-and-recompute, never to a wrong answer. An LRU index with a
// byte budget bounds the live set, and singleflight coalescing makes N
// identical concurrent requests cost one computation.
//
// A cache directory has exactly one owner at a time: two processes
// appending to the same segment would interleave frames. The serving
// fleet gives each shard its own -result-cache-dir.
package resultcache

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"softcache/internal/flight"
)

const (
	// maxKeyBytes bounds one key; keys are short hashes (see Key), so
	// anything near this limit is a caller bug, not a workload.
	maxKeyBytes = 4096
	// MaxValueBytes bounds one cached value. Larger values are refused by
	// Put (ErrValueTooLarge) rather than wedging the log.
	MaxValueBytes = 64 << 20
	// DefaultSegmentBytes is the rotation threshold for the active
	// segment when Open is given 0.
	DefaultSegmentBytes = 8 << 20
	// minBudget is the floor for the byte budget, mirroring the trace
	// cache: a misconfigured budget must not disable caching entirely.
	minBudget = 1 << 20
	// entryOverheadBytes approximates the fixed per-entry cost (map slot,
	// list element, index struct) charged against the budget.
	entryOverheadBytes = 128
)

// ErrClosed is returned by operations on a closed cache.
var ErrClosed = errors.New("resultcache: cache is closed")

// ErrValueTooLarge is returned by Put for values above MaxValueBytes.
var ErrValueTooLarge = errors.New("resultcache: value exceeds the record size limit")

// Cache is the durable result store. All methods are safe for concurrent
// use. Create with Open, release with Close.
type Cache struct {
	dir      string
	budget   int64
	segBytes int64

	mu      sync.Mutex
	index   map[string]*entry   // guarded by mu
	ll      *list.List          // guarded by mu; front = most recently used
	bytes   int64               // guarded by mu; live key+value+overhead bytes
	segs    map[uint64]*segment // guarded by mu
	active  *segment            // guarded by mu
	nextSeq uint64              // guarded by mu
	closed  bool                // guarded by mu

	// flights coalesces Do's computations over the segment log.
	flights *flight.Group[string, []byte]

	hits        atomic.Uint64
	misses      atomic.Uint64
	stores      atomic.Uint64
	evictions   atomic.Uint64
	corruptions atomic.Uint64
}

// entry locates one live value in the segment log.
type entry struct {
	key  string
	seg  *segment
	off  int64 // byte offset of the value within the segment file
	vlen int
	crc  uint32
	cost int64
	elem *list.Element
}

// logStore is the segment log as the store behind Do's flights.
type logStore struct{ c *Cache }

func (s logStore) Load(key string) ([]byte, bool) { return s.c.Peek(key) }

// Store errors (disk full, closed mid-run) do not fail the request: the
// computed value is still correct, it is just not durable.
func (s logStore) Store(key string, val []byte) { s.c.Put(key, val) }

// Open loads (or creates) the cache directory, rebuilding the index from
// the segment log. budget is the live-byte budget (values below 1 MiB are
// raised to 1 MiB); segmentBytes is the rotation threshold for segment
// files (0 = DefaultSegmentBytes). Corrupt or torn records discovered
// during the scan are dropped — the tail of the newest segment is
// physically truncated back to its last whole record so appends resume on
// a clean boundary.
func Open(dir string, budget, segmentBytes int64) (*Cache, error) {
	if budget < minBudget {
		budget = minBudget
	}
	if segmentBytes <= 0 {
		segmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	c := &Cache{
		dir:      dir,
		budget:   budget,
		segBytes: segmentBytes,
		index:    make(map[string]*entry),
		ll:       list.New(),
		segs:     make(map[uint64]*segment),
	}
	c.flights = flight.New[string, []byte](logStore{c})
	if err := c.loadSegments(); err != nil {
		c.Close()
		return nil, err
	}
	c.mu.Lock()
	c.evictLocked()
	c.mu.Unlock()
	return c, nil
}

// Close releases every segment file handle. Further Get/Put/Do calls fail
// with ErrClosed (Do falls back to computing uncached).
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	var firstErr error
	for _, seg := range c.segs {
		if err := seg.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Get returns the cached value for key, or (nil, false) on a miss,
// counting a hit when the lookup succeeds. The value is read back from
// the segment log and CRC-verified on every call: a record that no
// longer matches its checksum — a flipped bit on disk — is dropped and
// reported as a miss, never returned.
func (c *Cache) Get(key string) ([]byte, bool) {
	val, ok := c.Peek(key)
	if ok {
		c.hits.Add(1)
	}
	return val, ok
}

// Peek is Get without the hit accounting, for callers that orchestrate
// their own lookup protocol (the streamed-trace path decides hit vs miss
// only after comparing content fingerprints) and count via Hit and Miss.
// Corruption detection and entry dropping behave exactly like Get.
func (c *Cache) Peek(key string) ([]byte, bool) {
	c.mu.Lock()
	e, ok := c.index[key]
	if !ok || c.closed {
		c.mu.Unlock()
		return nil, false
	}
	c.ll.MoveToFront(e.elem)
	seg, off, vlen, crc := e.seg, e.off, e.vlen, e.crc
	c.mu.Unlock()

	val := make([]byte, vlen)
	_, err := seg.f.ReadAt(val, off)
	if err == nil && crc32c(val) == crc {
		return val, true
	}

	// The record is unreadable or fails its CRC. Drop it — but only if it
	// is still the live entry; a concurrent Put may have replaced it.
	c.mu.Lock()
	if cur, ok := c.index[key]; ok && cur == e {
		c.removeLocked(e)
		c.corruptions.Add(1)
	}
	c.mu.Unlock()
	return nil, false
}

// Hit and Miss record one request-level cache outcome, for callers that
// look up via Peek. Do and Get account for themselves; a Peek-based
// protocol calls exactly one of these per request so the hit/miss
// counters stay a request-accurate ledger.
func (c *Cache) Hit()  { c.hits.Add(1) }
func (c *Cache) Miss() { c.misses.Add(1) }

// Put stores val under key, appending one record to the segment log and
// evicting least-recently-used entries beyond the byte budget (the newest
// entry always stays resident, even oversized).
func (c *Cache) Put(key string, val []byte) error {
	if key == "" || len(key) > maxKeyBytes {
		return fmt.Errorf("resultcache: key length %d out of range", len(key))
	}
	if len(val) > MaxValueBytes {
		return ErrValueTooLarge
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	if c.active == nil || c.active.size >= c.segBytes {
		if err := c.rotateLocked(); err != nil {
			return err
		}
	}
	off, crc, err := c.active.append(key, val)
	if err != nil {
		return err
	}
	if old, ok := c.index[key]; ok {
		c.removeLocked(old)
	}
	e := &entry{
		key:  key,
		seg:  c.active,
		off:  off,
		vlen: len(val),
		crc:  crc,
		cost: int64(len(key)) + int64(len(val)) + entryOverheadBytes,
	}
	e.elem = c.ll.PushFront(e)
	c.index[key] = e
	c.active.live++
	c.bytes += e.cost
	c.stores.Add(1)
	c.evictLocked()
	return nil
}

// Do returns the value for key, computing it with compute on a miss.
// Concurrent Do calls for one key coalesce onto a single compute; callers
// that arrive while it runs wait for its result. A failed compute is
// delivered only to the caller that ran it — waiters retry (and at most
// compute once themselves), so one canceled client cannot poison the
// others. hit reports whether the value came from the cache (or a shared
// flight) rather than this caller's own compute. ctx bounds only this
// caller's wait; on a closed cache Do degrades to calling compute
// directly.
func (c *Cache) Do(ctx context.Context, key string, compute func() ([]byte, error)) (val []byte, hit bool, err error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		val, err := compute()
		return val, false, err
	}
	val, computed, err := c.flights.Do(ctx, key, func() ([]byte, error) {
		c.misses.Add(1)
		return compute()
	})
	if err != nil {
		return nil, false, err
	}
	if !computed {
		c.hits.Add(1)
	}
	return val, !computed, nil
}

// removeLocked drops one live entry and reclaims its segment if that was
// the last live record in it.
func (c *Cache) removeLocked(e *entry) {
	delete(c.index, e.key)
	c.ll.Remove(e.elem)
	c.bytes -= e.cost
	e.seg.live--
	if e.seg.live == 0 && e.seg != c.active {
		delete(c.segs, e.seg.seq)
		e.seg.remove()
	}
}

// evictLocked drops least-recently-used entries until the budget holds,
// always keeping the most recent entry resident.
func (c *Cache) evictLocked() {
	for c.bytes > c.budget && c.ll.Len() > 1 {
		e := c.ll.Back().Value.(*entry)
		c.removeLocked(e)
		c.evictions.Add(1)
	}
}

// Stats is a snapshot of the cache counters for /metrics.
type Stats struct {
	// Hits counts lookups served from the cache (including waits on a
	// coalesced flight); Misses counts computations actually run by Do.
	Hits, Misses uint64
	// Stores counts records appended; Evictions counts budget evictions;
	// Corruptions counts records dropped because they failed their CRC on
	// read (each one degraded to a miss, never a wrong answer).
	Stores, Evictions, Corruptions uint64
	// Bytes is the live-entry footprint; Budget its bound; Entries and
	// Segments the live index and segment-file counts.
	Bytes, Budget     int64
	Entries, Segments int
}

// Stats snapshots the counters and current occupancy.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	bytes, entries, segments := c.bytes, c.ll.Len(), len(c.segs)
	c.mu.Unlock()
	return Stats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Stores:      c.stores.Load(),
		Evictions:   c.evictions.Load(),
		Corruptions: c.corruptions.Load(),
		Bytes:       bytes,
		Budget:      c.budget,
		Entries:     entries,
		Segments:    segments,
	}
}

// Keys returns the live keys, unordered. Intended for tests and tooling.
func (c *Cache) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.index))
	for k := range c.index {
		out = append(out, k)
	}
	return out
}
