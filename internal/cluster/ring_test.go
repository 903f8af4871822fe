package cluster

import (
	"fmt"
	"testing"
)

// testKeys generates n distinct routing keys shaped like the serve trace
// cache's workload keys.
func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("workload:MV:test:%d", i)
	}
	return keys
}

// owners maps each key to its owner on r.
func owners(r *ring, keys []string) map[string]string {
	m := make(map[string]string, len(keys))
	for _, k := range keys {
		m[k] = r.Order(k)[0]
	}
	return m
}

// TestRingOwnerStable: a key's owner depends on the fleet, not on the
// order its shards are listed in.
func TestRingOwnerStable(t *testing.T) {
	a := newRing([]string{"a", "b", "c"}, 64)
	b := newRing([]string{"c", "a", "b"}, 64)
	for _, k := range testKeys(100) {
		if oa, ob := a.Order(k)[0], b.Order(k)[0]; oa != ob {
			t.Fatalf("owner of %q is %s or %s by listing order", k, oa, ob)
		}
	}
}

func TestRingDistribution(t *testing.T) {
	shards := []string{"s1", "s2", "s3", "s4"}
	r := newRing(shards, 64)
	counts := make(map[string]int)
	n := 4000
	for _, owner := range owners(r, testKeys(n)) {
		counts[owner]++
	}
	if len(counts) != len(shards) {
		t.Fatalf("only %d of %d shards own keys: %v", len(counts), len(shards), counts)
	}
	// With 64 vnodes the split should be within a factor of two of even.
	for s, c := range counts {
		if c < n/len(shards)/2 || c > n/len(shards)*2 {
			t.Errorf("shard %s owns %d of %d keys, want near %d", s, c, n, n/len(shards))
		}
	}
}

// TestRingRemoveMovesOnlyDepartedKeys pins the consistent-hashing
// property the router's cache-residency story depends on: a fleet without
// one shard relocates only the keys that shard owned.
func TestRingRemoveMovesOnlyDepartedKeys(t *testing.T) {
	keys := testKeys(1000)
	before := owners(newRing([]string{"s1", "s2", "s3", "s4"}, 64), keys)
	after := owners(newRing([]string{"s1", "s2", "s3"}, 64), keys)
	for _, k := range keys {
		if after[k] == "s4" {
			t.Fatalf("key %q still owned by removed shard", k)
		}
		if before[k] != "s4" && after[k] != before[k] {
			t.Fatalf("key %q moved %s -> %s though its owner stayed in the fleet", k, before[k], after[k])
		}
	}
}

// TestRingAddMovesKeysOnlyToNewShard: a fleet with one more shard may
// give it keys, but every key that moves must move to the added shard.
func TestRingAddMovesKeysOnlyToNewShard(t *testing.T) {
	keys := testKeys(1000)
	before := owners(newRing([]string{"s1", "s2", "s3"}, 64), keys)
	after := owners(newRing([]string{"s1", "s2", "s3", "s4"}, 64), keys)
	moved := 0
	for _, k := range keys {
		if after[k] != before[k] {
			moved++
			if after[k] != "s4" {
				t.Fatalf("key %q moved %s -> %s, not to the added shard", k, before[k], after[k])
			}
		}
	}
	if moved == 0 {
		t.Fatal("added shard claimed no keys")
	}
	if moved > len(keys)/2 {
		t.Fatalf("added shard claimed %d of %d keys, far above the ~1/4 consistent hashing promises", moved, len(keys))
	}
}

func TestRingOrder(t *testing.T) {
	r := newRing([]string{"s1", "s2", "s3"}, 64)
	for _, k := range testKeys(50) {
		order := r.Order(k)
		if len(order) != 3 {
			t.Fatalf("order for %q lists %d shards, want 3: %v", k, len(order), order)
		}
		seen := make(map[string]bool)
		for _, s := range order {
			if seen[s] {
				t.Fatalf("order for %q repeats %s: %v", k, s, order)
			}
			seen[s] = true
		}
	}
}
