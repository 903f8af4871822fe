// Package cluster turns softcache-served into a fleet: a router/proxy
// that consistent-hash shards simulation requests by trace identity
// across N replica daemons, so each decoded trace is resident on exactly
// one shard's coalescing cache. The router is built to stay up when
// shards do not: active health probes drive a per-shard circuit breaker,
// failed attempts retry against the next ring replica under a global
// retry budget, an optional hedge races a second replica for tail
// latency, and when every preferred replica for a key is down the
// request is rerouted to any live shard with an explicit degraded-mode
// header instead of failing.
//
// The fault paths are exercised, not hoped for: internal/cluster/chaos
// is a deterministic fault-injection proxy (drops, stalls, 5xx bursts,
// partial writes — the wire-level analogue of harness.Corpus's corrupted
// trace vocabulary) that the test suite places between router and shards.
//
// See docs/SERVE.md "Cluster mode" for topology and failure semantics.
package cluster

import (
	"cmp"
	"fmt"
	"slices"
)

// ringPoint is one virtual node: a position on the hash circle owned by
// a shard.
type ringPoint struct {
	hash  uint64
	shard string
}

// ring is a consistent-hash ring with virtual nodes over a fixed fleet.
// Keys map to the shard owning the first point clockwise of the key's
// hash; Order walks on from there, yielding every shard in
// failover-preference order. A shard's points depend only on its own
// name, so adding or removing a shard moves only the keys that shard
// owns — the property the rebalance tests pin.
type ring struct {
	points []ringPoint // sorted by hash
	shards int
}

// newRing builds a ring with vnodes virtual nodes for each of shards,
// which must be distinct.
func newRing(shards []string, vnodes int) *ring {
	r := &ring{points: make([]ringPoint, 0, len(shards)*vnodes), shards: len(shards)}
	for _, s := range shards {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: fnv1a(fmt.Sprintf("%s#%d", s, v)), shard: s})
		}
	}
	slices.SortFunc(r.points, func(a, b ringPoint) int {
		return cmp.Or(cmp.Compare(a.hash, b.hash), cmp.Compare(a.shard, b.shard))
	})
	return r
}

// fnv1a is the ring's hash — the same function trace.Fingerprint uses,
// so the whole stack keys identity the same way. The finalizing mix
// matters here in a way it does not for fingerprints: ring positions
// come from short, near-identical labels ("shard#0", "shard#1", ...),
// and raw FNV leaves their high bits correlated enough to skew the key
// split several-fold. The mix spreads them.
func fnv1a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// Order returns every shard in preference order for key: the owner
// first, then each distinct shard met walking clockwise. This is the
// router's failover sequence — replica i+1 picks up when replica i is
// down, and the order is stable for a fixed fleet.
func (r *ring) Order(key string) []string {
	h := fnv1a(key)
	start, _ := slices.BinarySearchFunc(r.points, h, func(p ringPoint, h uint64) int { return cmp.Compare(p.hash, h) })
	out := make([]string, 0, r.shards)
	seen := make(map[string]bool, r.shards)
	for i := 0; i < len(r.points) && len(out) < r.shards; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.shard] {
			seen[p.shard] = true
			out = append(out, p.shard)
		}
	}
	return out
}
