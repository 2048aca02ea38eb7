package core

import "stack2d/internal/pad"

// node is one cell of a sub-stack's singly linked list.
type node[T any] struct {
	value T
	next  *node[T]
}

// descriptor is the immutable per-sub-stack snapshot the paper updates with
// a 16-byte compare-and-exchange: the topmost node pointer and the item
// counter, changed together in one atomic step.
//
// Substitution note (see DESIGN.md §3): instead of cmpxchg16b we allocate a
// fresh descriptor per successful operation and swing a single
// atomic.Pointer. The {top, count} pair still changes atomically, the
// algorithm remains lock-free, and the garbage collector rules out ABA on
// descriptor addresses because a descriptor cannot be freed (hence reused)
// while a CAS still references it.
type descriptor[T any] struct {
	top   *node[T]
	count int64 // exact length of the list hanging off top
}

// subStack is a single sub-stack slot in the stack-array. Each slot is
// padded to a cache line so CAS traffic on one sub-stack does not invalidate
// its neighbours (the disjoint-access-parallelism dimension of the design).
type subStack[T any] struct {
	desc pad.PointerLine[descriptor[T]]
}

// load returns the current descriptor. Sub-stacks are initialised eagerly,
// so the result is never nil.
func (ss *subStack[T]) load() *descriptor[T] { return ss.desc.P.Load() }

// cas attempts to replace old with next in one atomic step.
func (ss *subStack[T]) cas(old, next *descriptor[T]) bool {
	return ss.desc.P.CompareAndSwap(old, next)
}

// newSubStack is the stack's Hooks.NewSlot: an empty sub-stack (a stack
// slot needs no window floor — its count is its population).
func newSubStack[T any](int64) *subStack[T] {
	ss := new(subStack[T])
	ss.desc.P.Store(&descriptor[T]{})
	return ss
}
