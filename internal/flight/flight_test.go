package flight

import (
	"context"
	"errors"
	"slices"
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

func TestDoManyComputesOnlyUnknownKeysInOneCall(t *testing.T) {
	s := newStore()
	s.Store("b", 2)
	g := New[string, int](s)
	var calls [][]int
	compute := func(own []int) ([]int, error) {
		calls = append(calls, slices.Clone(own))
		out := make([]int, len(own))
		for j, i := range own {
			out[j] = 10 + i
		}
		return out, nil
	}
	keys := []string{"a", "b", "c", "a"}
	vals, err := g.DoMany(context.Background(), keys, compute)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{10, 2, 12, 10}; !slices.Equal(vals, want) {
		t.Fatalf("vals = %v, want %v", vals, want)
	}
	if len(calls) != 1 || !slices.Equal(calls[0], []int{0, 2}) {
		t.Fatalf("compute calls = %v, want one over [0 2]", calls)
	}
	if vals, err := g.DoMany(context.Background(), keys, compute); err != nil || vals[2] != 12 || len(calls) != 1 {
		t.Fatalf("all keys known: DoMany = (%v, %v) after %d calls, want no call", vals, err, len(calls))
	}
}

// TestDoManyComputesBeforeWaiting: a caller that claims one key and
// finds another in the air computes its own claim first, while the other
// flight is still running, and waits only after that.
func TestDoManyComputesBeforeWaiting(t *testing.T) {
	g := New[string, int](newStore())
	xStarted, xRelease := make(chan struct{}), make(chan struct{})
	go g.Do(context.Background(), "x", func() (int, error) {
		close(xStarted)
		<-xRelease
		return 1, nil
	})
	<-xStarted
	type result struct {
		vals []int
		err  error
	}
	done := make(chan result)
	go func() {
		vals, err := g.DoMany(context.Background(), []string{"y", "x"}, func(own []int) ([]int, error) {
			if !slices.Equal(own, []int{0}) {
				t.Errorf("own = %v, want [0]", own)
			}
			close(xRelease) // x is still in the air: y was computed first
			return []int{2}, nil
		})
		done <- result{vals, err}
	}()
	select {
	case r := <-done:
		if r.err != nil || !slices.Equal(r.vals, []int{2, 1}) {
			t.Fatalf("DoMany = %+v, want [2 1]", r)
		}
	case <-time.After(time.Minute):
		t.Fatal("DoMany waited on x before computing y")
	}
}

// TestPanickingComputeDropsItsClaims: a panic in compute reaches its
// caller, and the keys it claimed are not left in the air.
func TestPanickingComputeDropsItsClaims(t *testing.T) {
	s := newStore()
	g := New[string, int](s)
	func() {
		defer func() {
			if p := recover(); p != "compute panicked" {
				t.Fatalf("recovered %v", p)
			}
		}()
		g.DoMany(context.Background(), []string{"p", "q"}, func([]int) ([]int, error) { panic("compute panicked") })
	}()
	if g.inFlight() != 0 || s.len() != 0 {
		t.Fatalf("after a panic: %d flights, %d stored", g.inFlight(), s.len())
	}
	if v, _, err := g.Do(context.Background(), "p", func() (int, error) { return 3, nil }); err != nil || v != 3 {
		t.Fatalf("Do after the panic = (%d, %v)", v, err)
	}
}
