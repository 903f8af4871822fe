package idtable

import (
	"testing"

	"softcache/internal/timing"
)

// checkAgainstMap feeds keys to a Table and to a Go map that numbers
// them the same way, and fails on the first disagreement.
func checkAgainstMap(t *testing.T, name string, keys []uint64) {
	t.Helper()
	var tab Table
	want := map[uint64]int32{}
	for i, k := range keys {
		id, fresh := tab.ID(k)
		w, seen := want[k]
		if !seen {
			w = int32(len(want))
			want[k] = w
		}
		if id != w || fresh == seen {
			t.Fatalf("%s: key %d (%#x): ID = %d, fresh %v; want %d, fresh %v", name, i, k, id, fresh, w, !seen)
		}
		if tab.Len() != len(want) {
			t.Fatalf("%s: key %d: Len %d, want %d", name, i, tab.Len(), len(want))
		}
	}
}

// TestMatchesMap: random keys, drawn with repeats from about 10,000 so
// the table doubles several times; keys that differ only above their low
// 32 bits; and keys whose hashes all share their home slot, so every
// key probes one cluster: each gets the id a Go map assigns.
func TestMatchesMap(t *testing.T) {
	rng := timing.NewRNG(3)
	var random []uint64
	for i := 0; i < 200_000; i++ {
		random = append(random, rng.Uint64()%(40*minSlots))
	}
	checkAgainstMap(t, "random", random)

	var high []uint64
	for pass := 0; pass < 2; pass++ {
		for i := uint64(0); i < 20*minSlots; i++ {
			high = append(high, i<<32)
		}
	}
	checkAgainstMap(t, "shared low bits", high)

	// j·C⁻¹ hashes to j, whose top bits, the home slot, are all zero.
	const c = 0x9e3779b97f4a7c15
	inv := uint64(c)
	for i := 0; i < 5; i++ {
		inv *= 2 - c*inv // Newton's step doubles the correct low bits
	}
	var clustered []uint64
	for pass := 0; pass < 2; pass++ {
		for j := uint64(0); j < 4*minSlots; j++ {
			clustered = append(clustered, j*inv)
		}
	}
	var probe Table
	probe.grow()
	for _, k := range clustered {
		if h := probe.home(k); h != 0 {
			t.Fatalf("key %#x homes at slot %d, want 0", k, h)
		}
	}
	checkAgainstMap(t, "one home slot", clustered)

	checkAgainstMap(t, "zero and max", []uint64{0, ^uint64(0), 0, 1, ^uint64(0)})
}

// TestGrowsFromSmall: the table starts at minSlots and doubles at half
// load, so it holds between two and four slots a key once past its
// first allocation.
func TestGrowsFromSmall(t *testing.T) {
	var tab Table
	tab.ID(7)
	if len(tab.slots) != minSlots {
		t.Fatalf("first allocation %d slots, want %d", len(tab.slots), minSlots)
	}
	for k := uint64(0); k < 10_000; k++ {
		slots, keys := len(tab.slots), cap(tab.keys)
		tab.ID(k)
		n := tab.Len()
		if 2*n > len(tab.slots) || (len(tab.slots) > minSlots && len(tab.slots) > 4*n) {
			t.Fatalf("%d keys in %d slots", n, len(tab.slots))
		}
		if len(tab.slots) == slots && cap(tab.keys) != keys {
			t.Fatalf("keys reallocated between doublings at %d keys", n)
		}
	}
}
