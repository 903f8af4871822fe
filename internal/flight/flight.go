// Package flight coalesces concurrent computations of keyed values. The
// first caller to ask for a key that its Store lacks claims the key and
// computes it; callers that ask while that flight is in the air wait for
// its value instead of computing it again.
//
// Three rules hold for every Group:
//
//   - A wait ends early when the waiter's ctx is done.
//   - A failed (or panicking) computation is neither stored nor shared:
//     the caller that ran it gets its error, and its waiters retry, each
//     claiming the key itself or waiting on whoever claimed it first.
//   - One caller can claim several keys at once and fill them all from
//     one computation (DoMany). It computes every key it claimed before it
//     waits on a key another caller holds, so callers never wait on each
//     other in a cycle.
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

// slot is the flight of keys[i] in a DoMany call.
type slot[V any] struct {
	i int
	f *flight[V]
}

// New returns a Group over s.
func New[K comparable, V any](s Store[K, V]) *Group[K, V] {
	return &Group[K, V]{store: s, flights: make(map[K]*flight[V])}
}

// Do returns the value of key: the stored one, the one another caller's
// flight delivers, or fn's. computed reports whether it is fn's: this
// caller's own computation, which Do stored.
func (g *Group[K, V]) Do(ctx context.Context, key K, fn func() (V, error)) (val V, computed bool, err error) {
	vals, err := g.DoMany(ctx, []K{key}, func([]int) ([]V, error) {
		computed = true
		v, err := fn()
		return []V{v}, err
	})
	if err != nil {
		return val, computed, err
	}
	return vals[0], computed, nil
}

// DoMany returns the values of keys, index-aligned with them. It claims
// every key that is neither stored nor in the air and fills them all
// from one call to compute(own), which must return the values of
// keys[own[0]], keys[own[1]], … in that order; it makes no call when
// every key is known. Only then does it wait for the keys other callers
// hold.
//
// When compute fails, DoMany returns its error and drops the keys it
// claimed, so their waiters retry. When another caller's flight fails,
// DoMany retries that key itself.
func (g *Group[K, V]) DoMany(ctx context.Context, keys []K, compute func(own []int) ([]V, error)) ([]V, error) {
	vals := make([]V, len(keys))
	var todo []int
	for i, k := range keys {
		if v, ok := g.store.Load(k); ok {
			vals[i] = v
		} else {
			todo = append(todo, i)
		}
	}
	for len(todo) > 0 {
		own, pending := g.claim(keys, todo)
		if len(own) > 0 {
			if err := g.fly(keys, own, vals, compute); err != nil {
				return nil, err
			}
		}
		if len(pending) == 0 {
			break
		}
		for _, p := range pending {
			select {
			case <-p.f.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		todo = todo[:0]
		for _, p := range pending {
			if p.f.ok {
				vals[p.i] = p.f.val
			} else {
				todo = append(todo, p.i)
			}
		}
	}
	return vals, nil
}

// claim puts a flight in the air for every key of todo nobody holds
// (own), and returns the flights other callers, or an earlier index of
// keys, hold for the rest (pending).
func (g *Group[K, V]) claim(keys []K, todo []int) (own, pending []slot[V]) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, i := range todo {
		if f, ok := g.flights[keys[i]]; ok {
			pending = append(pending, slot[V]{i, f})
			continue
		}
		f := &flight[V]{done: make(chan struct{})}
		g.flights[keys[i]] = f
		own = append(own, slot[V]{i, f})
	}
	return own, pending
}

// fly fills the keys this caller claimed: one stored since the lookup is
// read back, the rest come from one call to compute and are stored. Then
// every flight lands with its value, or, when compute fails or panics, is
// dropped without one.
func (g *Group[K, V]) fly(keys []K, own []slot[V], vals []V, compute func([]int) ([]V, error)) error {
	landed := false
	defer func() {
		if !landed {
			g.land(keys, own, nil)
		}
	}()
	var missing []int
	for _, o := range own {
		if v, ok := g.store.Load(keys[o.i]); ok {
			vals[o.i] = v
		} else {
			missing = append(missing, o.i)
		}
	}
	if len(missing) > 0 {
		got, err := compute(missing)
		if err != nil {
			return err
		}
		for j, i := range missing {
			vals[i] = got[j]
			g.store.Store(keys[i], got[j])
		}
	}
	g.land(keys, own, vals)
	landed = true
	return nil
}

// land takes the flights of own out of the air and wakes their waiters,
// handing each its value from vals, or none when vals is nil.
func (g *Group[K, V]) land(keys []K, own []slot[V], vals []V) {
	g.mu.Lock()
	for _, o := range own {
		if vals != nil {
			o.f.val, o.f.ok = vals[o.i], true
		}
		delete(g.flights, keys[o.i])
	}
	g.mu.Unlock()
	for _, o := range own {
		close(o.f.done)
	}
}
