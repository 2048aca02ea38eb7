package main

import "math/bits"

// labelSet records the labels one taker (a worker, or the final drain)
// got out of the structure, counting repeats and labels outside the
// label space as it goes.
type labelSet struct {
	bits []uint64
	dups uint64
	bad  uint64
}

func newLabelSet(labels int) *labelSet {
	return &labelSet{bits: make([]uint64, (labels+63)/64)}
}

func (s *labelSet) reset() {
	clear(s.bits)
	s.dups, s.bad = 0, 0
}

func (s *labelSet) mark(v uint64) {
	w := v >> 6
	if w >= uint64(len(s.bits)) {
		s.bad++
		return
	}
	m := uint64(1) << (v & 63)
	if s.bits[w]&m != 0 {
		s.dups++
	}
	s.bits[w] |= m
}

func (s *labelSet) set(v uint64) { s.bits[v>>6] |= 1 << (v & 63) }

// audit checks exactly-once delivery: every expected label was taken by
// exactly one taker, once. It returns the number of violations: expected
// labels nobody took, labels taken more than once, and labels taken that
// were never put in.
func audit(expected *labelSet, takers []*labelSet) uint64 {
	var lost, stray, marks, union, dups uint64
	for _, t := range takers {
		dups += t.dups + t.bad
	}
	for i, want := range expected.bits {
		var got uint64
		for _, t := range takers {
			got |= t.bits[i]
			marks += uint64(bits.OnesCount64(t.bits[i]))
		}
		union += uint64(bits.OnesCount64(got))
		lost += uint64(bits.OnesCount64(want &^ got))
		stray += uint64(bits.OnesCount64(got &^ want))
	}
	return lost + stray + dups + (marks - union)
}
