// Package flight coalesces concurrent computations of keyed values. The
// first caller to ask for a key that its Store lacks claims the key and
// computes it; callers that ask while that flight is in the air wait for
// its value instead of computing it again.
//
// Two rules hold for every Group:
//
//   - A wait ends early when the waiter's ctx is done.
//   - A failed (or panicking) computation is neither stored nor shared:
//     the caller that ran it gets its error, and its waiters retry, each
//     claiming the key itself or waiting on whoever claimed it first.
package flight

import (
	"context"
	"sync"
)

// Store holds the values a Group's flights computed. A Group looks a key
// up before it claims it and again after, and stores a value before its
// flight lands, so a value stored between the lookup and the claim is
// found rather than computed twice. Both methods must be safe for
// concurrent use.
type Store[K comparable, V any] interface {
	Load(key K) (V, bool)
	Store(key K, val V)
}

// Group coalesces the computations of the values of one Store. Create it
// with New; all methods are safe for concurrent use.
type Group[K comparable, V any] struct {
	store Store[K, V]

	mu      sync.Mutex
	flights map[K]*flight[V] // guarded by mu
}

// flight is one claimed key in the air.
type flight[V any] struct {
	done chan struct{} // closed once the claimant landed or dropped it
	val  V             // set before done is closed
	ok   bool          // the claimant computed (and stored) val
}

// New returns a Group over s.
func New[K comparable, V any](s Store[K, V]) *Group[K, V] {
	return &Group[K, V]{store: s, flights: make(map[K]*flight[V])}
}

// Do returns the value of key: the stored one, the one another caller's
// flight delivers, or fn's. computed reports whether it is fn's: this
// caller's own computation, which Do stored. When another caller's
// flight fails, Do retries the key itself.
func (g *Group[K, V]) Do(ctx context.Context, key K, fn func() (V, error)) (val V, computed bool, err error) {
	if v, ok := g.store.Load(key); ok {
		return v, false, nil
	}
	for {
		g.mu.Lock()
		f, held := g.flights[key]
		if !held {
			f = &flight[V]{done: make(chan struct{})}
			g.flights[key] = f
		}
		g.mu.Unlock()
		if !held {
			return g.fly(key, f, fn)
		}
		select {
		case <-f.done:
		case <-ctx.Done():
			return val, false, ctx.Err()
		}
		if f.ok {
			return f.val, false, nil
		}
	}
}

// fly fills the key this caller claimed: a value stored since the lookup
// is read back, otherwise fn computes one, which is stored. Then the
// flight lands with its value, or, when fn fails or panics, is dropped
// without one.
func (g *Group[K, V]) fly(key K, f *flight[V], fn func() (V, error)) (V, bool, error) {
	defer func() {
		g.mu.Lock()
		delete(g.flights, key)
		g.mu.Unlock()
		close(f.done)
	}()
	if v, ok := g.store.Load(key); ok {
		f.val, f.ok = v, true
		return v, false, nil
	}
	v, err := fn()
	if err != nil {
		var zero V
		return zero, true, err
	}
	g.store.Store(key, v)
	f.val, f.ok = v, true
	return v, true, nil
}
