// Fixture: the blessed locking idioms — none of these may be flagged.
package good

import "sync"

type counter struct {
	mu sync.Mutex
	n  int         // guarded by mu
	m  map[int]int // guarded by mu
}

// window locks, touches a guarded field and unlocks, with no defer.
func window(c *counter) {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

// deferred holds to function end through the deferred Unlock.
func deferred(c *counter) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// early unlocks and returns inside a branch; the fall-through path
// still holds the lock.
func early(c *counter, done bool) {
	c.mu.Lock()
	if done {
		c.n = 1
		c.mu.Unlock()
		return
	}
	c.n = 2
	c.mu.Unlock()
}

// relock gives the lock up and takes it again.
func relock(c *counter) {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	c.mu.Lock()
	c.n--
	c.mu.Unlock()
}

// drainLocked follows the *Locked convention: the body assumes the
// caller holds c.mu.
func (c *counter) drainLocked() {
	for k := range c.m {
		delete(c.m, k)
	}
	c.n = 0
}

// viaLocked calls the Locked method with the guard held.
func viaLocked(c *counter) {
	c.mu.Lock()
	c.drainLocked()
	c.mu.Unlock()
}

// perIteration locks inside the loop body each pass.
func perIteration(c *counter, xs []int) {
	for _, x := range xs {
		c.mu.Lock()
		c.n += x
		c.mu.Unlock()
	}
}

// closureLocks: a literal that takes the lock itself is fine.
func closureLocks(c *counter) func() {
	return func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.n++
	}
}

// nested guards reached through a field path, the bench.Context shape.
type owner struct {
	inner *counter
}

func throughPath(o *owner) {
	o.inner.mu.Lock()
	o.inner.n++
	o.inner.mu.Unlock()
}

// switchHeld: every case runs under the lock taken before the switch.
func switchHeld(c *counter, k int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch k {
	case 0:
		c.n = 0
	default:
		c.n += k
	}
}
