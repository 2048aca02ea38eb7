package twodqueue

// The queue's op-buffer rules (the bookkeeping is the kernel's; see
// core.Runtime.SetOpBuffer and DESIGN.md §11). Pending enqueues publish
// through EnqueueBatch and the prefetch refills through DequeueBatch. Two
// FIFO-specific differences from the stack side:
//
//   - BufferedDequeue never serves pending enqueues. On a stack the newest
//     pending item is exactly what Pop would return; on a queue it is the
//     farthest item from the front, so eliding would realise the worst
//     possible displacement. Instead, a dequeue that finds the structure
//     empty while enqueues are pending flushes them and retries the refill
//     once — the pop-miss flush — so a producer/consumer pair on one
//     handle can never deadlock against its own buffer.
//
//   - Disarming with undelivered prefetched values re-enqueues them at the
//     back, in their delivery order: they were already dequeued from the
//     front, and a queue has no order-restoring return path. The one-time
//     displacement is bounded by the queue length at the disarm; deliver
//     the prefetch through BufferedDequeue first when order matters.

// BufferedEnqueue adds v through the operation buffer: the value is
// retained locally and published — together with every pending neighbour —
// as one combined EnqueueBatch once bufCap values are pending. With
// buffering disarmed it is exactly Enqueue.
func (h *Handle[T]) BufferedEnqueue(v T) {
	if !h.Hold(v) {
		h.Enqueue(v)
	}
}

// BufferedDequeue removes a value through the operation buffer: the
// prefetch serves front-first; an exhausted prefetch is refilled with one
// combined DequeueBatch of up to bufCap values. Pending enqueues are never
// served directly (see above) — but an empty refill with enqueues pending
// flushes them and refills once more, so ok is false only when the
// structure and the handle's own buffer are both out of items. With
// buffering disarmed it is exactly Dequeue.
func (h *Handle[T]) BufferedDequeue() (v T, ok bool) {
	if h.OpBuffer() <= 0 {
		return h.Dequeue()
	}
	v, ok = h.Serve()
	if pending, _ := h.BufferedCounts(); !ok && pending > 0 {
		h.FlushOps() // pop-miss flush: our own enqueues are the supply
		v, ok = h.Serve()
	}
	return v, ok
}
