package core

import "stack2d/internal/yield"

// Gate is the deterministic schedule director's yield hook (DESIGN.md §10),
// shared by the stack and the queue.
// It is nil in production — every call site pays one predicted-untaken nil
// check, and every call site is already off the uncontended fast path (a
// failed CAS, a pre-window-move coverage failure, a reconfiguration, a
// quiescence wait) — and is installed by internal/director for the duration
// of one directed run. Install and clear only while no operations are in
// flight; the director's task spawning provides the happens-before edge.
var Gate func(yield.Point)

// Yield fires the director hook, if installed. Kept tiny so the nil fast
// path inlines to a single load-and-branch at every call site, the queue's
// included.
func Yield(p yield.Point) {
	if g := Gate; g != nil {
		g(p)
	}
}

// SetAnchor forces the handle's next search to start at sub-stack idx,
// overriding the locality anchor of the most recent success. With
// RandomHops = 0 and no concurrent operations the next Push or Pop then
// lands on idx whenever idx is window-valid — the property the
// deterministic director's exact trace replay relies on to drive the real
// stack through a seqspec explorer trace (sub-stack choices included).
// Out-of-range indices are re-anchored randomly by the next pin, exactly
// like a dangling anchor after a width shrink. Owner-goroutine only, like
// every Handle method; diagnostics and directed replay, not a tuning knob.
func (h *Handle[T]) SetAnchor(idx int) {
	if idx < 0 {
		idx = 0
	}
	h.Last[0] = idx
}
