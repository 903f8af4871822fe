package cluster

import "sync"

// retryBudget is the router's global brake on retry amplification: a
// token bucket where every incoming request deposits Ratio tokens
// (capped at Burst) and every retry or hedge withdraws one. A healthy
// fleet never notices it; a sick fleet sees retries throttled to
// roughly Ratio extra attempts per request instead of multiplying every
// failure by the replica count and melting down. The accounting is
// deliberately time-free so tests are exact.
type retryBudget struct {
	ratio float64
	burst float64

	mu     sync.Mutex
	tokens float64 // guarded by mu
}

// newRetryBudget builds a budget that starts full; non-positive
// parameters get the conventional defaults (ratio 0.1, burst 10).
func newRetryBudget(ratio, burst float64) *retryBudget {
	if ratio <= 0 {
		ratio = 0.1
	}
	if burst < 1 {
		burst = 10
	}
	return &retryBudget{ratio: ratio, burst: burst, tokens: burst}
}

// Deposit credits one incoming request.
func (b *retryBudget) Deposit() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tokens += b.ratio
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
}

// Withdraw takes one token for a retry or hedge, reporting whether the
// budget allowed it.
func (b *retryBudget) Withdraw() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}
