package core

import (
	"sync/atomic"

	"stack2d/internal/pad"
)

// node is one cell of a sub-stack's singly linked list below its top. The
// topmost cell lives inside the descriptor (descriptor.top).
type node[T any] struct {
	value T
	next  *node[T]
}

// descriptor is the immutable per-sub-stack state the paper updates with a
// 16-byte compare-and-exchange: the topmost cell and the item counter,
// changed together in one atomic step.
//
// Substitution note (see DESIGN.md §3): Go has no double-width CAS, so a
// state is a descriptor object and a sub-stack swings one atomic.Pointer to
// it. The descriptor embeds its top cell, so a push allocates exactly one
// object, and links through prev to a lower state of the same list, so a
// pop usually CASes back to a state that already exists and allocates
// nothing. A published descriptor and every cell under it never change (the
// one exception is the shrink splice, which rewrites a dropped chain's
// bottom link after epoch quiescence, when no handle can reach it), so a
// descriptor pointer always denotes one {list, count} state: a CAS that
// succeeds against a descriptor a pop has put back acts on exactly the
// state it validated, which is the semantics of the paper's value-compared
// CAS.
//
// Invariant (checked by Stack.CheckInvariants): counts strictly fall along
// prev, and each prev's top cell is the very list cell at depth
// count − prev.count (for a count-0 prev, the end of the list).
type descriptor[T any] struct {
	top   node[T]        // topmost cell, embedded; unused when count == 0
	count int64          // exact list length
	prev  *descriptor[T] // a lower state of this same list (a suffix), or nil
}

// head returns the topmost cell, or nil for an empty state.
func (d *descriptor[T]) head() *node[T] {
	if d.count == 0 {
		return nil
	}
	return &d.top
}

// below returns the state m cells under d, whose top cell is newTop (nil
// when m == d.count). It walks prev to the state with count d.count−m and
// reuses it when it exists; otherwise it allocates one descriptor copying
// *newTop that links to the nearest lower state.
func (d *descriptor[T]) below(m int64, newTop *node[T]) *descriptor[T] {
	c := d.count - m
	p := d.prev
	for p != nil && p.count > c {
		p = p.prev
	}
	if p != nil && p.count == c {
		return p
	}
	nd := &descriptor[T]{count: c, prev: p}
	if c > 0 {
		nd.top = *newTop
	}
	return nd
}

// subStack is a single sub-stack slot in the stack-array. Each slot is
// padded to a cache line so CAS traffic on one sub-stack does not invalidate
// its neighbours (the disjoint-access-parallelism dimension of the design).
//
// A slot's window height is its population (the descriptor count) plus its
// base. The base is zero for every slot made at construction. A slot added
// by width growth joins at the window floor instead of at height zero (see
// Stack.newSubStack), and its base sinks with the floor whenever a pop pass
// finds the slot empty; it never rises. The base sits in the descriptor's
// cache line, so reading it costs a probe no extra miss. It is read without
// ordering against the descriptor: a stale base can only misjudge one
// probe's validity by the amount the floor moved, never expose an empty
// slot to a pop, because pops also require count > 0.
type subStack[T any] struct {
	desc atomic.Pointer[descriptor[T]]
	base atomic.Int64
	_    [pad.CacheLineSize - 16]byte
}

// load returns the current descriptor. Sub-stacks are initialised eagerly,
// so the result is never nil.
func (ss *subStack[T]) load() *descriptor[T] { return ss.desc.Load() }

// cas attempts to replace old with next in one atomic step.
func (ss *subStack[T]) cas(old, next *descriptor[T]) bool {
	return ss.desc.CompareAndSwap(old, next)
}

// sinkBase lowers an empty slot's base to the window floor, so a grown slot
// that has drained rejoins the band where the window now is (a base left
// above the ceiling would take the slot out of the window). Called by pop
// passes on a probe that found the slot empty.
func (ss *subStack[T]) sinkBase(base, floor int64) {
	if base > floor {
		ss.base.CompareAndSwap(base, floor)
	}
}

// newSubStack is the stack's Hooks.NewSlot: an empty sub-stack whose base
// is the window floor under the new depth, so a slot added by width growth
// joins the band the other slots occupy. Starting it at height zero would
// let pushes pile up to Global fresh items in it while pops keep serving
// the survivors' older items, exceeding the Theorem 1 bound of the grown
// geometry by up to the floor per added slot. (The queue's grown sub-queues
// join at the enqueue floor for the same reason, DESIGN.md §5.) At
// construction Global equals the depth, so every base is zero.
func (s *Stack[T]) newSubStack(depth int64) *subStack[T] {
	ss := new(subStack[T])
	ss.desc.Store(&descriptor[T]{})
	if floor := s.global.V.Load() - depth; floor > 0 {
		ss.base.Store(floor)
	}
	return ss
}
