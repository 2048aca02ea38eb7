// Package msqueue implements the classic Michael–Scott lock-free FIFO queue
// (Michael & Scott, PODC 1996). It is the strict FIFO baseline the 2D-Queue
// (internal/twodqueue) is measured against, as internal/treiber is for the
// 2D-Stack. The 2D-Queue keeps its own inline copy of this list as its
// sub-queue, with the window counters on the end pointers' cache lines.
//
// The queue is a singly linked list with a dummy head node. Enqueue links a
// node after the current tail and swings the tail pointer (helping a lagging
// tail forward when needed); Dequeue advances the head past the dummy. ABA
// is precluded by the garbage collector, as in the other list-based
// structures of this module.
package msqueue

import "sync/atomic"

type node[T any] struct {
	value T
	next  atomic.Pointer[node[T]]
}

// Queue is a lock-free FIFO queue. Create with New; it must not be copied.
type Queue[T any] struct {
	head   atomic.Pointer[node[T]] // points at the dummy; head.next is the front
	tail   atomic.Pointer[node[T]]
	length atomic.Int64
}

// New returns an empty queue.
func New[T any]() *Queue[T] {
	q := &Queue[T]{}
	dummy := &node[T]{}
	q.head.Store(dummy)
	q.tail.Store(dummy)
	return q
}

// Enqueue appends v at the back of the queue.
func (q *Queue[T]) Enqueue(v T) {
	n := &node[T]{value: v}
	for {
		tail := q.tail.Load()
		next := tail.next.Load()
		if tail != q.tail.Load() {
			continue // tail moved under us; re-read
		}
		if next != nil {
			// Tail is lagging: help swing it and retry.
			q.tail.CompareAndSwap(tail, next)
			continue
		}
		if tail.next.CompareAndSwap(nil, n) {
			q.tail.CompareAndSwap(tail, n) // best effort; others will help
			q.length.Add(1)
			return
		}
	}
}

// Dequeue removes and returns the front value; ok is false if the queue was
// observed empty.
func (q *Queue[T]) Dequeue() (v T, ok bool) {
	for {
		head := q.head.Load()
		tail := q.tail.Load()
		next := head.next.Load()
		if head != q.head.Load() {
			continue
		}
		if next == nil {
			var zero T
			return zero, false // empty (head == tail, no next)
		}
		if head == tail {
			// Tail lagging behind a non-empty list: help it.
			q.tail.CompareAndSwap(tail, next)
			continue
		}
		if q.head.CompareAndSwap(head, next) {
			q.length.Add(-1)
			// next is now the dummy; clear its value so the queue does not
			// pin the dequeued item for the GC until the following dequeue.
			// Safe: only the CAS winner reads next.value.
			v = next.value
			var zero T
			next.value = zero
			return v, true
		}
	}
}

// Empty reports whether the queue was observed empty.
func (q *Queue[T]) Empty() bool {
	head := q.head.Load()
	return head.next.Load() == nil
}

// Len returns the approximate number of items (exact when quiescent).
func (q *Queue[T]) Len() int { return int(q.length.Load()) }

// Drain removes all items front-first; teardown/testing helper.
func (q *Queue[T]) Drain() []T {
	var out []T
	for {
		v, ok := q.Dequeue()
		if !ok {
			return out
		}
		out = append(out, v)
	}
}
