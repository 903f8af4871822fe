// Fixture: cancellable consumption loops and out-of-scope shapes —
// none of these may be flagged.
package good

import (
	"context"
	"net/http"

	"softcache/internal/cache"
	"softcache/internal/trace"
)

// perBatch is the core.Run shape: one poll per decoded batch.
func perBatch(ctx context.Context, r *trace.Reader, buf []trace.Record) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		n, err := r.ReadBatch(buf)
		if n == 0 || err != nil {
			return err
		}
	}
}

// fused: the outer per-batch poll covers the bounded inner
// per-simulator loop.
func fused(ctx context.Context, sims []*cache.Simulator, r *trace.Reader, buf []trace.Record) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		n, err := r.ReadBatch(buf)
		for _, sim := range sims {
			sim.AccessAll(buf[:n])
		}
		if n == 0 || err != nil {
			return err
		}
	}
}

// interval polls every N records rather than per batch, which still
// counts — any context expression in the body does.
func interval(ctx context.Context, sim *cache.Simulator, recs []trace.Record) error {
	for i, rec := range recs {
		if i%1024 == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		sim.Access(rec)
	}
	return nil
}

// viaRequest polls through the request's context.
func viaRequest(w http.ResponseWriter, req *http.Request, sim *cache.Simulator, recs []trace.Record) {
	for _, rec := range recs {
		if req.Context().Err() != nil {
			return
		}
		sim.Access(rec)
	}
}

// passesOn hands ctx to the callee each iteration; the callee owns the
// polling contract from there.
func passesOn(ctx context.Context, rs []*trace.Reader, buf []trace.Record) error {
	for _, r := range rs {
		if err := perBatch(ctx, r, buf); err != nil {
			return err
		}
	}
	return nil
}

// noContext has nothing to poll: out of scope by design.
func noContext(r *trace.Reader, buf []trace.Record) int {
	total := 0
	for {
		n, err := r.ReadBatch(buf)
		total += n
		if n == 0 || err != nil {
			return total
		}
	}
}

// bookkeeping iterates without consuming trace input: not a
// consumption loop, ctx or not.
func bookkeeping(ctx context.Context, keys []string) map[string]bool {
	seen := make(map[string]bool, len(keys))
	for _, k := range keys {
		seen[k] = true
	}
	return seen
}
