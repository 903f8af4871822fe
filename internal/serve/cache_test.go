package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"softcache/internal/trace"
)

// fakeTrace builds a trace with n records so tests control entry sizes.
func fakeTrace(name string, n int) *trace.Trace {
	t := &trace.Trace{Name: name}
	for i := 0; i < n; i++ {
		t.Append(trace.Record{Addr: uint64(i) * 4, Size: 4})
	}
	return t
}

func TestTraceCacheCoalescesConcurrentLoads(t *testing.T) {
	c := NewTraceCache(1 << 20)
	var loads atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	load := func() (*trace.Trace, error) {
		loads.Add(1)
		close(started)
		<-release
		return fakeTrace("shared", 100), nil
	}

	const n = 16
	var wg sync.WaitGroup
	got := make([]*trace.Trace, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = c.Get(context.Background(), "k", load)
		}(i)
	}
	<-started // one loader is in flight; every other Get must now wait on it
	close(release)
	wg.Wait()

	if loads.Load() != 1 {
		t.Fatalf("load ran %d times, want 1", loads.Load())
	}
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("get %d: %v", i, errs[i])
		}
		if got[i] != got[0] {
			t.Fatalf("get %d returned a different trace pointer", i)
		}
	}
	s := c.Stats()
	if s.Misses != 1 || s.Decodes != 1 || s.Hits != n-1 {
		t.Fatalf("stats misses=%d decodes=%d hits=%d, want 1/1/%d", s.Misses, s.Decodes, s.Hits, n-1)
	}
}

func TestTraceCacheEvictsLRU(t *testing.T) {
	perEntry := traceBytes(fakeTrace("e", 1000))
	c := NewTraceCache(1 << 20) // fits ~3 such entries per budget below
	c.lru.budget = perEntry*3 + perEntry/2

	load := func(name string) func() (*trace.Trace, error) {
		return func() (*trace.Trace, error) { return fakeTrace(name, 1000), nil }
	}
	ctx := context.Background()
	for _, k := range []string{"a", "b", "c", "d"} {
		if _, err := c.Get(ctx, k, load(k)); err != nil {
			t.Fatal(err)
		}
	}
	// a is the least recently used and the budget holds 3: only a evicts.
	s := c.Stats()
	if s.Evictions != 1 || s.Entries != 3 {
		t.Fatalf("evictions=%d entries=%d, want 1 and 3", s.Evictions, s.Entries)
	}
	var reloaded atomic.Int64
	if _, err := c.Get(ctx, "a", func() (*trace.Trace, error) {
		reloaded.Add(1)
		return fakeTrace("a", 1000), nil
	}); err != nil {
		t.Fatal(err)
	}
	if reloaded.Load() != 1 {
		t.Fatal("evicted entry was still served from cache")
	}
	// b was the LRU at that point and must have made room for a.
	if c.Stats().Evictions != 2 {
		t.Fatalf("evictions=%d, want 2", c.Stats().Evictions)
	}
}

func TestTraceCacheKeepsOversizedResident(t *testing.T) {
	c := NewTraceCache(1 << 20)
	c.lru.budget = 1 // every entry is over budget
	ctx := context.Background()
	var loads atomic.Int64
	load := func() (*trace.Trace, error) {
		loads.Add(1)
		return fakeTrace("big", 5000), nil
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Get(ctx, "big", load); err != nil {
			t.Fatal(err)
		}
	}
	if loads.Load() != 1 {
		t.Fatalf("oversized trace reloaded %d times; the newest entry must stay resident", loads.Load())
	}
}

func TestTraceCacheLoadErrorNotCached(t *testing.T) {
	c := NewTraceCache(1 << 20)
	ctx := context.Background()
	boom := errors.New("decode failed")
	calls := 0
	load := func() (*trace.Trace, error) {
		calls++
		if calls == 1 {
			return nil, boom
		}
		return fakeTrace("ok", 10), nil
	}
	if _, err := c.Get(ctx, "k", load); !errors.Is(err, boom) {
		t.Fatalf("first get: %v, want %v", err, boom)
	}
	if _, err := c.Get(ctx, "k", load); err != nil {
		t.Fatalf("retry after failed load: %v", err)
	}
	s := c.Stats()
	if s.LoadFailures != 1 || s.Misses != 2 {
		t.Fatalf("failures=%d misses=%d, want 1 and 2", s.LoadFailures, s.Misses)
	}
}

// parkSpy is a context whose first Done call, made when a Get starts
// waiting on another caller's load, closes parked.
type parkSpy struct {
	context.Context
	once   sync.Once
	parked chan struct{}
}

func newParkSpy() *parkSpy {
	return &parkSpy{Context: context.Background(), parked: make(chan struct{})}
}

func (s *parkSpy) Done() <-chan struct{} {
	s.once.Do(func() { close(s.parked) })
	return s.Context.Done()
}

// TestTraceCacheErrorReachesOnlyClaimant: a failed load's error goes to
// the Get that ran it and no further. A Get parked on that load runs its
// own load once the first one fails, and succeeds.
func TestTraceCacheErrorReachesOnlyClaimant(t *testing.T) {
	c := NewTraceCache(1 << 20)
	boom := errors.New("decode failed")
	started := make(chan struct{})
	release := make(chan struct{})
	claimant := make(chan error, 1)
	go func() {
		_, err := c.Get(context.Background(), "k", func() (*trace.Trace, error) {
			close(started)
			<-release
			return nil, boom
		})
		claimant <- err
	}()
	<-started
	spy := newParkSpy()
	waiter := make(chan error, 1)
	var waiterLoads atomic.Int64
	go func() {
		tr, err := c.Get(spy, "k", func() (*trace.Trace, error) {
			waiterLoads.Add(1)
			return fakeTrace("k", 10), nil
		})
		if err == nil && tr.Name != "k" {
			err = fmt.Errorf("waiter got trace %q", tr.Name)
		}
		waiter <- err
	}()
	<-spy.parked // the waiter waits on the claimant's load
	close(release)
	if err := <-claimant; !errors.Is(err, boom) {
		t.Fatalf("claimant got %v, want %v", err, boom)
	}
	if err := <-waiter; err != nil {
		t.Fatalf("waiter got %v, want its own load's trace", err)
	}
	if waiterLoads.Load() != 1 {
		t.Fatalf("waiter ran %d loads, want 1", waiterLoads.Load())
	}
	s := c.Stats()
	if s.LoadFailures != 1 || s.Misses != 2 || s.Hits != 0 || s.Entries != 1 {
		t.Fatalf("failures=%d misses=%d hits=%d entries=%d, want 1/2/0/1",
			s.LoadFailures, s.Misses, s.Hits, s.Entries)
	}
}

// TestTraceCachePanickingLoadFreesKey: a load that panics hands its panic
// to its own caller and leaves the key free, so the next Get loads it
// rather than waiting for a load that will never land.
func TestTraceCachePanickingLoadFreesKey(t *testing.T) {
	c := NewTraceCache(1 << 20)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the load's panic did not reach its caller")
			}
		}()
		c.Get(context.Background(), "k", func() (*trace.Trace, error) { panic("decoder bug") })
	}()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	tr, err := c.Get(ctx, "k", func() (*trace.Trace, error) { return fakeTrace("k", 10), nil })
	if err != nil {
		t.Fatalf("get after a panicking load: %v", err)
	}
	if tr.Name != "k" {
		t.Fatalf("got trace %q, want k", tr.Name)
	}
	if s := c.Stats(); s.LoadFailures != 1 || s.Misses != 2 {
		t.Fatalf("failures=%d misses=%d, want 1 and 2", s.LoadFailures, s.Misses)
	}
}

func TestTraceCacheCanceledWaiter(t *testing.T) {
	c := NewTraceCache(1 << 20)
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Get(context.Background(), "k", func() (*trace.Trace, error) {
			close(started)
			<-release
			return fakeTrace("k", 10), nil
		})
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Get(ctx, "k", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter got %v", err)
	}

	close(release)
	wg.Wait()
	// The load itself must have completed and been cached despite the
	// canceled waiter.
	var loads atomic.Int64
	if _, err := c.Get(context.Background(), "k", func() (*trace.Trace, error) {
		loads.Add(1)
		return nil, errors.New("should not run")
	}); err != nil {
		t.Fatal(err)
	}
	if loads.Load() != 0 {
		t.Fatal("completed load was not cached")
	}
}

// TestTraceCacheConcurrentChurn hammers the cache from many goroutines
// with a budget small enough to force constant eviction — primarily -race
// fodder for the lock discipline around entries, the LRU list and the
// byte accounting.
func TestTraceCacheConcurrentChurn(t *testing.T) {
	c := NewTraceCache(1 << 20)
	c.lru.budget = traceBytes(fakeTrace("e", 500)) * 2

	const workers = 8
	const iters = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < iters; i++ {
				key := fmt.Sprintf("k%d", (w+i)%5)
				tr, err := c.Get(ctx, key, func() (*trace.Trace, error) {
					if i%17 == 3 {
						return nil, errors.New("synthetic load failure")
					}
					return fakeTrace(key, 500), nil
				})
				if err == nil && tr.Name != key {
					t.Errorf("key %s got trace %s", key, tr.Name)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	s := c.Stats()
	if s.Hits+s.Misses != workers*iters {
		t.Fatalf("hits+misses = %d, want %d", s.Hits+s.Misses, workers*iters)
	}
	checkBytes(t, c)
	if s.Bytes > s.Budget && s.Entries > 1 {
		t.Fatalf("budget not enforced: used=%d budget=%d entries=%d", s.Bytes, s.Budget, s.Entries)
	}
}

// checkBytes fails t unless the cache's byte count is the sum of its
// entries' sizes.
func checkBytes(t *testing.T, c *TraceCache) {
	t.Helper()
	c.lru.mu.Lock()
	defer c.lru.mu.Unlock()
	var sum int64
	for e := c.lru.ll.Front(); e != nil; e = e.Next() {
		sum += traceBytes(e.Value.(*lruEntry).tr)
	}
	if sum != c.lru.used {
		t.Fatalf("byte accounting drifted: sum=%d used=%d", sum, c.lru.used)
	}
}
