package twodqueue

// SetAnchor forces both of the handle's locality anchors (enqueue and
// dequeue side) to start the next search at sub-queue idx. With
// RandomHops = 0 and no concurrent operations the next Enqueue or Dequeue
// then lands on idx whenever idx is window-valid — the property exact trace
// replay (internal/director) relies on to drive the real queue through a
// seqspec explorer trace. Out-of-range indices are re-anchored randomly by
// the next pin. Owner-goroutine only; diagnostics and directed replay, not
// a tuning knob.
func (h *Handle[T]) SetAnchor(idx int) {
	idx = max(idx, 0)
	h.Last[enq], h.Last[deq] = idx, idx
}
