package twodqueue

import (
	"sync/atomic"

	"stack2d/internal/pad"
)

// node is one Michael–Scott list cell. The list keeps a dummy at its head:
// head.next is the front item.
type node[T any] struct {
	value T
	next  atomic.Pointer[node[T]]
}

// subQueue is one sub-structure: an inline Michael–Scott queue whose two
// ends each share a cache line with their window counter (see "Sub-queue
// layout" in the package doc). The struct is exactly two lines, so its
// size class keeps it line-aligned. Slots are held by pointer so
// successive geometries can share surviving sub-queues without moving an
// item.
type subQueue[T any] struct {
	head atomic.Pointer[node[T]]
	deqs atomic.Int64 // completed dequeues (plus the join floor)
	_    [pad.CacheLineSize - 16]byte
	tail atomic.Pointer[node[T]]
	enqs atomic.Int64 // completed enqueues (plus the join floor)
	_    [pad.CacheLineSize - 16]byte
}

// newSubQueue is the queue's Hooks.NewSlot: an empty sub-queue joining the
// structure at the enqueue window's floor (GlobalEnq − depth, zero at
// construction). A sub-queue added by a width growth must not start its
// counters at zero: the windows have typically advanced far past zero, and
// a zero-count newcomer would be enqueue-valid for the whole distance — an
// unbounded relaxation hole. Starting at the floor lets it absorb at most
// `depth` enqueues per window, like every other sub-queue. Both counters
// start there, so the newcomer is empty by its own count and its j-th item
// carries the same ordinal at both ends: it becomes dequeue-valid when the
// dequeue window reaches the items enqueued alongside it. (Starting the
// dequeue counter at the dequeue window's floor instead would let fresh
// items leave ahead of the whole backlog of a long queue.)
func (q *Queue[T]) newSubQueue(depth int64) *subQueue[T] {
	floor := max(q.globalEnq.V.Load()-depth, 0)
	sq := &subQueue[T]{}
	dummy := &node[T]{}
	sq.head.Store(dummy)
	sq.tail.Store(dummy)
	sq.enqs.Store(floor)
	sq.deqs.Store(floor)
	return sq
}

// len is the population by the counters, enqs − deqs: exact when
// quiescent, approximate (and clamped at zero) while operations are in
// flight, since each counter is bumped after its operation's CAS.
func (sq *subQueue[T]) len() int64 {
	return max(sq.enqs.Load()-sq.deqs.Load(), 0)
}

// empty reports whether the list was observed empty.
func (sq *subQueue[T]) empty() bool {
	return sq.head.Load().next.Load() == nil
}

// tryEnqueue makes one attempt to link n after the tail. A false return
// means the tail was lagging (and was helped forward) or another enqueuer
// won the link CAS; n is then still unlinked, so the caller retries with
// the same node — here or on another sub-queue — and an Enqueue allocates
// once however many attempts it takes. The caller bumps enqs.
func (sq *subQueue[T]) tryEnqueue(n *node[T]) bool {
	tail := sq.tail.Load()
	next := tail.next.Load()
	if next != nil {
		sq.tail.CompareAndSwap(tail, next)
		return false
	}
	if tail.next.CompareAndSwap(nil, n) {
		sq.tail.CompareAndSwap(tail, n) // best effort; others will help
		return true
	}
	return false
}

// tryDequeue makes one attempt to unlink the front item. contended
// distinguishes a lost head CAS from emptiness, mirroring the stack's
// TryPop for the window search. The caller bumps deqs.
func (sq *subQueue[T]) tryDequeue() (v T, ok bool, contended bool) {
	head := sq.head.Load()
	tail := sq.tail.Load()
	next := head.next.Load()
	if next == nil {
		return v, false, false
	}
	if head == tail {
		sq.tail.CompareAndSwap(tail, next) // tail lagging behind a non-empty list
	}
	if sq.head.CompareAndSwap(head, next) {
		// next is now the dummy; move the value out of it so the sub-queue
		// does not pin the dequeued item for the GC until the following
		// dequeue. Safe: only the CAS winner reads next.value.
		v = next.value
		var zero T
		next.value = zero
		return v, true, false
	}
	return v, false, true
}

// enqueue links v, retrying on this sub-queue until it lands, and bumps
// enqs. The shrink handoff's placement step; client enqueues hop instead.
func (sq *subQueue[T]) enqueue(v T) {
	n := &node[T]{value: v}
	for !sq.tryEnqueue(n) {
	}
	sq.enqs.Add(1)
}

// dequeue unlinks the front item, retrying on contention; ok is false when
// the list was observed empty. The shrink handoff's drain step, on a
// dropped sub-queue no operation can reach any more, so its counters are
// left alone.
func (sq *subQueue[T]) dequeue() (v T, ok bool) {
	for {
		v, ok, contended := sq.tryDequeue()
		if ok || !contended {
			return v, ok
		}
	}
}
