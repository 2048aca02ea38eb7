package twodqueue

import (
	"stack2d/internal/core"
	"stack2d/internal/yield"
)

// Batched operations, the queue twin of internal/core's batch.go. A batch
// applies a run of sub-queue operations under one geometry pin and — the
// combined-publication payoff — bumps the sub-queue's monotonic window
// counter ONCE per successful run instead of once per operation, so a run
// of m enqueues costs one contended Add instead of m. The window
// discipline is preserved by an upfront headroom check: a run of m is
// attempted only while counter+m <= Global, indistinguishable (for the
// relaxation bound) from m consecutive singletons that all landed there.
//
// The deferred counter bump widens the in-flight slack: a mid-run
// sub-queue holds up to m completed-but-uncounted operations, versus one
// for a singleton. Each batch is still one in-flight operation, so the
// concurrent checkers budget this with the same per-handle allowance
// scaled by the batch cap — see seqspec.BufferAllowance and DESIGN.md §11.

// EnqueueBatch enqueues all values in order; vs[0] is the frontmost of the
// batch. Values may be split across sub-queues when window headroom is
// short, exactly as a loop of Enqueue calls could be.
func (h *Handle[T]) EnqueueBatch(vs []T) {
	geo := h.BeginBatch() // no sample, no countdown tick (see core.Runtime.BeginBatch)
	q := h.q
	width := geo.Width
	ord, pos, localN := h.Probe(geo)
	sockIdx := h.SockIdx(geo)
	remaining := vs
	for len(remaining) > 0 {
		global := q.globalEnq.V.Load()
		idx := h.Last[enq]
		at := 0
		if ord != nil {
			at = pos[idx]
		}
		probes := 0
		randLeft := geo.Hops
		for probes < width && len(remaining) > 0 {
			if g := q.globalEnq.V.Load(); g != global {
				global = g
				probes = 0
				randLeft = geo.Hops
				h.Ctr.Restarts++
			}
			sub := geo.Subs[idx]
			h.Ctr.Probes++
			if headroom := global - sub.enqs.V.Load(); headroom > 0 {
				m := int64(len(remaining))
				if m > headroom {
					m = headroom
				}
				done := int64(0)
				for done < m && sub.q.TryEnqueue(remaining[done]) {
					done++
				}
				if done > 0 {
					// One counter bump for the whole run — the combined
					// publication that amortises the coherence traffic.
					sub.enqs.V.Add(done)
					h.Last[enq] = idx
					h.Ctr.Pushes += uint64(done)
					remaining = remaining[done:]
					continue
				}
				// Contention with zero progress: hop away, fresh pass.
				h.Ctr.CASFailures++
				h.Ctr.SocketCAS[sockIdx]++
				core.Yield(yield.PointCASFail)
				idx = core.HopIdx(h.Rng, width, ord, localN)
				if ord != nil {
					at = pos[idx]
				}
				probes = 0
				randLeft = 0
				continue
			}
			if randLeft > 0 {
				randLeft--
				h.Ctr.RandomHops++
				idx = core.HopIdx(h.Rng, width, ord, localN)
				if ord != nil {
					at = pos[idx]
				}
				continue
			}
			probes++
			if ord == nil {
				idx++
				if idx == width {
					idx = 0
				}
			} else {
				at++
				if at == width {
					at = 0
				}
				idx = ord[at]
			}
		}
		if len(remaining) == 0 {
			break
		}
		core.Yield(yield.PointWindowMove)
		if q.globalEnq.V.CompareAndSwap(global, global+geo.Shift) {
			h.Ctr.WindowRaises++
		}
	}
	h.End()
}

// DequeueBatch removes up to max values, returned front-first. It returns
// a short (possibly empty) slice when every sub-queue is observed empty
// within the window discipline, exactly as max consecutive Dequeue calls
// would.
func (h *Handle[T]) DequeueBatch(max int) []T {
	if max <= 0 {
		return nil
	}
	return h.dequeueBatchInto(make([]T, 0, max), max)
}

// dequeueBatchInto is DequeueBatch appending into a caller-owned slice:
// the op buffer's prefetch refill (buffer.go) passes its standing buffer
// so a steady-state refill allocates nothing beyond the sub-queue's own
// node recycling. Callers pass out[:0] relative to the max budget.
func (h *Handle[T]) dequeueBatchInto(out []T, max int) []T {
	geo := h.BeginBatch() // see EnqueueBatch
	q := h.q
	width := geo.Width
	ord, pos, localN := h.Probe(geo)
	sockIdx := h.SockIdx(geo)
	for len(out) < max {
		global := q.globalDeq.V.Load()
		idx := h.Last[deq]
		at := 0
		if ord != nil {
			at = pos[idx]
		}
		probes := 0
		randLeft := geo.Hops
		sawInvalidNonEmpty := false
		for probes < width && len(out) < max {
			if g := q.globalDeq.V.Load(); g != global {
				global = g
				probes = 0
				randLeft = geo.Hops
				sawInvalidNonEmpty = false
				h.Ctr.Restarts++
			}
			sub := geo.Subs[idx]
			h.Ctr.Probes++
			if avail := global - sub.deqs.V.Load(); avail > 0 {
				m := int64(max - len(out))
				if m > avail {
					m = avail
				}
				done := int64(0)
				contended := false
				for done < m {
					val, got, cont := sub.q.TryDequeue()
					if !got {
						contended = cont
						break
					}
					out = append(out, val)
					done++
				}
				if done > 0 {
					sub.deqs.V.Add(done) // one bump per run, as in EnqueueBatch
					h.Last[deq] = idx
					h.Ctr.Pops += uint64(done)
					continue
				}
				if contended {
					// Another dequeuer beat us with zero progress: hop away.
					h.Ctr.CASFailures++
					h.Ctr.SocketCAS[sockIdx]++
					core.Yield(yield.PointCASFail)
					idx = core.HopIdx(h.Rng, width, ord, localN)
					if ord != nil {
						at = pos[idx]
					}
					probes = 0
					randLeft = 0
					continue
				}
				// Valid but empty: treat as a coverage probe.
			} else if !sub.q.Empty() {
				sawInvalidNonEmpty = true
			}
			if randLeft > 0 {
				randLeft--
				h.Ctr.RandomHops++
				idx = core.HopIdx(h.Rng, width, ord, localN)
				if ord != nil {
					at = pos[idx]
				}
				continue
			}
			probes++
			if ord == nil {
				idx++
				if idx == width {
					idx = 0
				}
			} else {
				at++
				if at == width {
					at = 0
				}
				idx = ord[at]
			}
		}
		if len(out) >= max {
			break
		}
		if !sawInvalidNonEmpty {
			// Full coverage saw only empty sub-queues (any non-empty one was
			// dequeue-valid and yielded nothing): the queue is out of items.
			if len(out) == 0 {
				h.Ctr.EmptyPops++
			}
			break
		}
		// Items exist beyond the current window: raise it and retry.
		core.Yield(yield.PointWindowMove)
		if q.globalDeq.V.CompareAndSwap(global, global+geo.Shift) {
			h.Ctr.WindowLowers++
		}
	}
	h.End()
	return out
}
