package cache

// Column-associative cache model (§5 related work, Agarwal & Pudar [2]).
//
// The organisation is folded into a 2-way structure whose two ways stand
// for the two direct-mapped sets that share a rehash pair: an address whose
// original direct-mapped index falls in the lower half of the index space
// has its *primary* (fast, 1-cycle) location in way 0 and its secondary
// (rehash, 2-cycle) location in way 1, and vice versa. A line found in its
// secondary location is swapped towards its primary one, and replacement
// follows the rehash-bit policy: a line sitting in somebody else's primary
// slot (a "guest") is evicted first.

// columnHomeWay returns which way of the folded set is the primary
// location of line address la: the most significant bit of the original
// direct-mapped index. The folded cache has a power-of-two set count
// (Validate) and two ways, so that bit is the one just above the set
// index.
func (s *Simulator) columnHomeWay(la uint64) int {
	if la&uint64(s.main.sets) != 0 {
		return 1
	}
	return 0
}

// columnProbe finds la and reports whether it sits in its primary slot.
// On a secondary-slot hit the two slots are swapped so the line answers
// fast next time.
func (s *Simulator) columnProbe(la uint64) (l *line, slow bool) {
	base := s.main.setIndex(la) * s.main.ways
	home := base + s.columnHomeWay(la)
	other := base + (s.main.ways - 1 - s.columnHomeWay(la))
	if hl := &s.main.lines[home]; hl.valid() && hl.tag == la {
		return hl, false
	}
	if ol := &s.main.lines[other]; ol.valid() && ol.tag == la {
		s.main.lines[home], s.main.lines[other] = s.main.lines[other], s.main.lines[home]
		return &s.main.lines[home], true
	}
	return nil, false
}

// columnInstall places line address la following the rehash-bit policy and
// returns the evicted line (invalid if none) together with the slot the
// new line occupies (so callers need not re-probe the cache):
//
//   - primary slot free: take it;
//   - primary occupied by a line *in its own primary slot*: that line is
//     demoted to its secondary slot (this set's other way), whose occupant
//     is evicted;
//   - primary occupied by a guest (a rehashed line whose primary is the
//     other way): the guest is evicted outright.
func (s *Simulator) columnInstall(la uint64) (line, *line) {
	base := s.main.setIndex(la) * s.main.ways
	homeW := s.columnHomeWay(la)
	hw := &s.main.lines[base+homeW]
	ow := &s.main.lines[base+(s.main.ways-1-homeW)]

	if !hw.valid() {
		s.main.install(hw, la)
		return line{}, hw
	}
	occupantAtHome := s.columnHomeWay(hw.tag) == homeW
	if occupantAtHome {
		evicted := *ow
		*ow = *hw
		s.main.install(hw, la)
		return evicted, hw
	}
	evicted := *hw
	s.main.install(hw, la)
	return evicted, hw
}
