package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// stampBB is the bounce-back replacement rule written the direct way, as a
// reference for bounceBackCache: every install and touch takes a fresh
// timestamp, and a victim is found by scanning the set for its first
// invalid slot, else its oldest stamp, or, under the §4.4 quota, its
// oldest prefetched stamp.
type stampBB struct {
	sets, assoc int
	tags        []uint64
	flags       []uint8
	stamps      []uint64
	tick        uint64
}

func newStampBB(entries, assoc int) *stampBB {
	return &stampBB{
		sets:   entries / assoc,
		assoc:  assoc,
		tags:   make([]uint64, entries),
		flags:  make([]uint8, entries),
		stamps: make([]uint64, entries),
	}
}

func (r *stampBB) setSlots(tag uint64) (lo, hi int) {
	s := int(tag % uint64(r.sets))
	return s * r.assoc, (s + 1) * r.assoc
}

func (r *stampBB) lookup(tag uint64) int {
	lo, hi := r.setSlots(tag)
	for i := lo; i < hi; i++ {
		if r.flags[i]&flagValid != 0 && r.tags[i] == tag {
			return i
		}
	}
	return -1
}

func (r *stampBB) victimFor(tag uint64, insertingPrefetched bool, maxPrefetched int) int {
	lo, hi := r.setSlots(tag)
	firstInvalid, lruAny, lruPrefetched, prefetched := -1, -1, -1, 0
	for i := lo; i < hi; i++ {
		f := r.flags[i]
		if f&flagValid == 0 {
			if firstInvalid < 0 {
				firstInvalid = i
			}
			continue
		}
		if f&flagPrefetched != 0 {
			prefetched++
			if lruPrefetched < 0 || r.stamps[i] < r.stamps[lruPrefetched] {
				lruPrefetched = i
			}
		}
		if lruAny < 0 || r.stamps[i] < r.stamps[lruAny] {
			lruAny = i
		}
	}
	if insertingPrefetched && maxPrefetched > 0 && prefetched >= maxPrefetched {
		return lruPrefetched
	}
	if firstInvalid >= 0 {
		return firstInvalid
	}
	return lruAny
}

func (r *stampBB) install(i int, tag uint64, flags uint8) {
	r.tick++
	r.tags[i], r.flags[i], r.stamps[i] = tag, flags|flagValid, r.tick
}

func (r *stampBB) invalidate(i int) { r.tags[i], r.flags[i], r.stamps[i] = 0, 0, 0 }

func (r *stampBB) touch(i int) {
	r.tick++
	r.stamps[i] = r.tick
}

// resident returns the valid tags of the reference, in slot order.
func (r *stampBB) resident() []uint64 {
	var out []uint64
	for i, f := range r.flags {
		if f&flagValid != 0 {
			out = append(out, r.tags[i])
		}
	}
	return out
}

// TestBounceBackReplacementOrder drives bounceBackCache and the stamp
// reference through the same seeded random sequences of the operations
// the simulator uses: install at the victim (with and without the
// prefetch quota), install at a looked-up slot (a bounce-back hit's swap),
// invalidate, and touch (a bypass-buffer hit). Slots are interchangeable,
// so the two are compared by contents: each victim must be empty in both
// or hold the same line, and every resident line must be found in both
// with the same flags.
func TestBounceBackReplacementOrder(t *testing.T) {
	for _, g := range []struct{ entries, assoc int }{{8, 8}, {8, 4}, {12, 4}, {1, 1}} {
		t.Run(fmt.Sprintf("%dx%d", g.entries/g.assoc, g.assoc), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(g.entries*100 + g.assoc)))
			b := newBounceBackCache(g.entries, g.assoc)
			ref := newStampBB(g.entries, g.assoc)
			sets := uint64(g.entries / g.assoc)
			next := uint64(0)
			fresh := func(set uint64) uint64 { next++; return next*sets + set }
			randFlags := func() uint8 {
				f := uint8(rng.Intn(4)) << 1 // dirty, temporal
				if rng.Intn(2) == 0 {
					f |= flagPrefetched
				}
				return f
			}
			for step := 0; step < 20000; step++ {
				res := ref.resident()
				var pick uint64
				if len(res) > 0 {
					pick = res[rng.Intn(len(res))]
				}
				op := rng.Intn(5)
				if len(res) == 0 {
					op = 0
				}
				switch op {
				case 0, 1: // install at the victim, the quota on or off
					tag := fresh(uint64(rng.Intn(int(sets))))
					flags := randFlags()
					quota := op == 1 && flags&flagPrefetched != 0
					maxPF := 1 + rng.Intn(g.assoc)
					if !quota {
						maxPF = 0
					}
					vk, vr := b.victimFor(tag, quota, maxPF), ref.victimFor(tag, quota, maxPF)
					if ek, er := b.entry(vk), ref.flags[vr]&flagValid != 0; ek.valid() != er || (er && ek.tag != ref.tags[vr]) {
						t.Fatalf("step %d: victim for %#x (quota %v, cap %d) holds %+v, reference %#x valid %v",
							step, tag, quota, maxPF, ek, ref.tags[vr], er)
					}
					b.install(vk, bbEntry{tag: tag, flags: flags})
					ref.install(vr, tag, flags)
				case 2: // swap: a new line of the same set takes a hit's slot
					tag := fresh(pick % sets)
					flags := randFlags() &^ flagPrefetched
					b.install(b.lookup(pick), bbEntry{tag: tag, flags: flags})
					ref.install(ref.lookup(pick), tag, flags)
				case 3:
					b.invalidate(b.lookup(pick))
					ref.invalidate(ref.lookup(pick))
				case 4:
					b.touch(b.lookup(pick))
					ref.touch(ref.lookup(pick))
				}
				res = ref.resident()
				if n := b.countValid(); n != len(res) {
					t.Fatalf("step %d (op %d): %d valid entries, reference %d", step, op, n, len(res))
				}
				for _, tag := range res {
					i := b.lookup(tag)
					if i < 0 || b.flags[i] != ref.flags[ref.lookup(tag)] {
						t.Fatalf("step %d (op %d): line %#x at slot %d, reference flags %#x", step, op, tag, i, ref.flags[ref.lookup(tag)])
					}
				}
			}
		})
	}
}
