// Package idtable numbers uint64 keys densely, in order of first sight:
// the trace analyses key their per-address and per-line state by these
// ids, in slices, and ask the table once per reference.
//
// The table is open-addressed with linear probing over a power-of-two
// slot array that starts small and doubles at half load, so it costs
// memory in proportion to the keys it holds, not to the trace it reads.
// A slot holds only an id; the keys themselves sit in id order, so a
// table costs 8 bytes a slot (16 to 32 bytes a key) and keys a trace
// touches in order are compared in order. A key's home slot is the top
// bits of its Fibonacci hash, so keys that differ only in their high
// bits, such as line addresses of one set, still spread.
package idtable

import "slices"

// minSlots is the slot count of an empty table's first allocation.
const minSlots = 256

// Table maps uint64 keys to ids 0, 1, 2, ... in order of first sight.
// The zero value is an empty table ready to use. A Table is not safe for
// concurrent use.
type Table struct {
	slots []int32  // the id plus one of the key homed here; 0 is empty
	keys  []uint64 // keys[id] is the key numbered id
	shift uint     // 64 - log2(len(slots))
}

// Len returns the number of distinct keys seen.
func (t *Table) Len() int { return len(t.keys) }

// ID returns key's id. A key not seen before gets the next id, Len()
// before the call, and fresh reports it.
func (t *Table) ID(key uint64) (id int32, fresh bool) {
	if 2*(len(t.keys)+1) > len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			id = int32(len(t.keys))
			t.keys = append(t.keys, key)
			t.slots[i] = id + 1
			return id, true
		}
		if t.keys[s-1] == key {
			return s - 1, false
		}
	}
}

func (t *Table) home(key uint64) int {
	return int((key * 0x9e3779b97f4a7c15) >> t.shift)
}

// grow doubles the slot array (or makes the first one), gives the keys
// room for every id up to the next doubling, and re-homes every id.
func (t *Table) grow() {
	size := max(2*len(t.slots), minSlots)
	t.slots = make([]int32, size)
	t.keys = slices.Grow(t.keys, size/2-len(t.keys))
	t.shift = 64
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
	mask := size - 1
	for id, key := range t.keys {
		i := t.home(key)
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = int32(id + 1)
	}
}
