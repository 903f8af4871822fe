package flight

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// mapStore is a Store in a map; afterLoad, when set, runs after every
// Load has read the map.
type mapStore struct {
	mu        sync.Mutex
	m         map[string]int
	afterLoad func(key string)
}

func newStore() *mapStore { return &mapStore{m: map[string]int{}} }

func (s *mapStore) Load(key string) (int, bool) {
	s.mu.Lock()
	v, ok := s.m[key]
	s.mu.Unlock()
	if s.afterLoad != nil {
		s.afterLoad(key)
	}
	return v, ok
}

func (s *mapStore) Store(key string, val int) {
	s.mu.Lock()
	s.m[key] = val
	s.mu.Unlock()
}

func (s *mapStore) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// inFlight reports how many keys are in the air.
func (g *Group[K, V]) inFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.flights)
}

// doneSpy is a context whose first Done call, made when a caller starts
// waiting on another caller's flight, closes waiting.
type doneSpy struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (s *doneSpy) Done() <-chan struct{} {
	s.once.Do(func() { close(s.waiting) })
	return s.Context.Done()
}

// waitUntil polls cond for up to a minute.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(time.Minute); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

func TestDoCoalescesAndStores(t *testing.T) {
	s := newStore()
	g := New[string, int](s)
	const n = 8
	release := make(chan struct{})
	var computes atomic.Int32
	var wg sync.WaitGroup
	vals := make([]int, n)
	computed := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, c, err := g.Do(context.Background(), "k", func() (int, error) {
				computes.Add(1)
				<-release
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i], computed[i] = v, c
		}(i)
	}
	waitUntil(t, "one caller computes", func() bool { return computes.Load() == 1 })
	close(release)
	wg.Wait()
	if computes.Load() != 1 {
		t.Fatalf("computes = %d, want 1", computes.Load())
	}
	nComputed := 0
	for i := range vals {
		if vals[i] != 42 {
			t.Fatalf("caller %d got %d", i, vals[i])
		}
		if computed[i] {
			nComputed++
		}
	}
	if nComputed != 1 {
		t.Fatalf("%d callers report computing, want 1", nComputed)
	}
	if v, ok := s.Load("k"); !ok || v != 42 {
		t.Fatalf("store holds (%d, %v), want 42", v, ok)
	}
	if v, c, err := g.Do(context.Background(), "k", func() (int, error) { return 0, errors.New("recomputed") }); v != 42 || c || err != nil {
		t.Fatalf("stored key: Do = (%d, %v, %v), want the stored 42", v, c, err)
	}
	if g.inFlight() != 0 {
		t.Fatalf("%d flights left in the air", g.inFlight())
	}
}

// TestFailureIsNeitherStoredNorShared: the claimant gets its own error;
// its waiter computes the key itself, and nothing failed is stored.
func TestFailureIsNeitherStoredNorShared(t *testing.T) {
	s := newStore()
	g := New[string, int](s)
	boom := errors.New("boom")
	started, fail := make(chan struct{}), make(chan struct{})
	errc := make(chan error)
	go func() {
		_, _, err := g.Do(context.Background(), "k", func() (int, error) {
			close(started)
			<-fail
			return 0, boom
		})
		errc <- err
	}()
	<-started
	type result struct {
		v        int
		computed bool
		err      error
	}
	waiter := make(chan result)
	spy := &doneSpy{Context: context.Background(), waiting: make(chan struct{})}
	go func() {
		v, c, err := g.Do(spy, "k", func() (int, error) { return 7, nil })
		waiter <- result{v, c, err}
	}()
	<-spy.waiting
	close(fail)
	if err := <-errc; !errors.Is(err, boom) {
		t.Fatalf("claimant err = %v, want boom", err)
	}
	if r := <-waiter; r.err != nil || r.v != 7 || !r.computed {
		t.Fatalf("waiter = %+v, want its own computed 7", r)
	}
	if v, _ := s.Load("k"); v != 7 {
		t.Fatalf("store holds %d, want 7", v)
	}
}

func TestWaitHonoursContext(t *testing.T) {
	g := New[string, int](newStore())
	started, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	go g.Do(context.Background(), "k", func() (int, error) {
		close(started)
		<-release
		return 1, nil
	})
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := g.Do(ctx, "k", func() (int, error) { return 2, nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestValueStoredBeforeClaimIsNotRecomputed: a flight that lands between
// a caller's lookup and its claim leaves its value in the store, and the
// caller's second lookup finds it.
func TestValueStoredBeforeClaimIsNotRecomputed(t *testing.T) {
	s := newStore()
	loads := 0
	s.afterLoad = func(key string) {
		if loads++; loads == 1 {
			s.Store(key, 5) // another flight lands after the first lookup
		}
	}
	g := New[string, int](s)
	v, computed, err := g.Do(context.Background(), "k", func() (int, error) { return 9, nil })
	if err != nil || v != 5 || computed {
		t.Fatalf("Do = (%d, %v, %v), want the stored 5", v, computed, err)
	}
}

// TestPanickingComputeDropsItsClaims: a panic in the computation reaches
// its caller, the key it claimed is not left in the air, and the next
// caller computes it.
func TestPanickingComputeDropsItsClaims(t *testing.T) {
	s := newStore()
	g := New[string, int](s)
	func() {
		defer func() {
			if p := recover(); p != "compute panicked" {
				t.Fatalf("recovered %v", p)
			}
		}()
		g.Do(context.Background(), "p", func() (int, error) { panic("compute panicked") })
	}()
	if g.inFlight() != 0 || s.len() != 0 {
		t.Fatalf("after a panic: %d flights, %d stored", g.inFlight(), s.len())
	}
	if v, c, err := g.Do(context.Background(), "p", func() (int, error) { return 3, nil }); err != nil || v != 3 || !c {
		t.Fatalf("Do after the panic = (%d, %v, %v), want its own computed 3", v, c, err)
	}
}
