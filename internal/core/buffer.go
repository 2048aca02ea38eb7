package core

// The stack's op-buffer rules (the bookkeeping is the kernel's; see
// Runtime.SetOpBuffer and DESIGN.md §11). Pending pushes publish through
// PushBatch, the prefetch refills through PopBatch, and a pop serves the
// newest pending push first: on a stack that is exactly what Pop would
// return, so the push/pop pair linearizes back to back.

// returnPrefetch is the stack's disarm-time return path: undelivered
// prefetched values (topmost-first) are pushed back newest-delivery-first,
// so the former topmost is pushed last and surfaces first again.
func (h *Handle[T]) returnPrefetch(vs []T) {
	for i := len(vs) - 1; i >= 0; i-- {
		h.Push(vs[i])
	}
}

// BufferedPush adds v through the operation buffer: the value is retained
// locally and published — together with every pending neighbour — as one
// combined PushBatch once bufCap values are pending. With buffering
// disarmed it is exactly Push.
func (h *Handle[T]) BufferedPush(v T) {
	if !h.Hold(v) {
		h.Push(v)
	}
}

// BufferedPop removes a value through the operation buffer. The newest
// pending push is served first (the push/pop pair linearizes back to
// back), then the prefetch; an empty prefetch is refilled with one
// combined PopBatch of up to bufCap values. ok is false only when the
// refill itself came back empty — the same observation Pop's empty verdict
// rests on, since by then no pending push exists either. With buffering
// disarmed it is exactly Pop.
func (h *Handle[T]) BufferedPop() (v T, ok bool) {
	if h.bufCap <= 0 {
		return h.Pop()
	}
	// Serve first publishes pushes buffered under a superseded geometry,
	// so only a reconciled buffer serves its newest pending push.
	if n := len(h.pending); n > 0 && h.bufEpoch == h.s.geo.Load().Epoch {
		v = h.pending[n-1]
		var zero T
		h.pending[n-1] = zero
		h.pending = h.pending[:n-1]
		h.syncBufCount()
		return v, true
	}
	return h.Serve()
}
