package core

import "stack2d/internal/yield"

// Batched operations. A batch applies several pushes (or pops) to one
// sub-stack with a single descriptor CAS, amortising the search and the
// coherence traffic. The window discipline is preserved exactly: a batch
// of m pushes is accepted only while count+m <= Global, i.e. it is
// indistinguishable (for the Theorem 1 bound) from m consecutive singleton
// pushes that all landed on that sub-stack — something the window already
// permits. Likewise a pop batch never takes a sub-stack below the window
// floor.

// PushBatch pushes all values; vs[len-1] ends up topmost, matching a
// sequential loop of Push calls. Values may be split across sub-stacks
// when window headroom is short. Under a local-probe placement policy the
// search honours the handle's probe plan exactly as Push does (same-socket
// slots first, DESIGN.md §7).
func (h *Handle[T]) PushBatch(vs []T) {
	// BeginBatch: a batch neither opens a latency sample nor consumes a
	// countdown tick (a batch duration is not a per-op latency).
	geo := h.BeginBatch()
	s := h.s
	width := geo.Width
	sockIdx := h.SockIdx(geo)
	ord, pos, localN := h.Probe(geo)
	remaining := vs
	for len(remaining) > 0 {
		global := s.global.V.Load()
		idx := h.Last[0]
		at := 0
		if ord != nil {
			at = pos[idx]
		}
		probes := 0
		randLeft := geo.Hops
		for probes < width && len(remaining) > 0 {
			if g := s.global.V.Load(); g != global {
				global = g
				probes = 0
				randLeft = geo.Hops
				h.Ctr.Restarts++
			}
			d := geo.Subs[idx].load()
			h.Ctr.Probes++
			if headroom := global - d.count; headroom > 0 {
				m := int64(len(remaining))
				if m > headroom {
					m = headroom
				}
				// Chain the first m values so remaining[m-1] is topmost. The
				// nodes come from one slab allocation and are linked in
				// place, so a combined publish costs one allocation per CAS
				// group instead of one per value (the slab stays reachable
				// until every node carved from it is popped and dropped —
				// the lifetime of a batch's top node, which batched
				// producer/consumer traffic turns over promptly).
				slab := make([]node[T], m)
				top := d.top
				for i := int64(0); i < m; i++ {
					slab[i] = node[T]{value: remaining[i], next: top}
					top = &slab[i]
				}
				if geo.Subs[idx].cas(d, &descriptor[T]{top: top, count: d.count + m}) {
					h.Last[0] = idx
					h.Ctr.Pushes += uint64(m)
					remaining = remaining[m:]
					continue
				}
				h.Ctr.CASFailures++
				h.Ctr.SocketCAS[sockIdx]++
				Yield(yield.PointCASFail)
				idx = HopIdx(h.Rng, width, ord, localN)
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
				idx = HopIdx(h.Rng, width, ord, localN)
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
		Yield(yield.PointWindowMove)
		if s.global.V.CompareAndSwap(global, global+geo.Shift) {
			h.Ctr.WindowRaises++
		}
	}
	h.End()
}

// PopBatch removes up to max values, returned topmost-first. It returns a
// short (possibly empty) slice when the stack runs out of items within the
// window discipline, exactly as max consecutive Pop calls would.
func (h *Handle[T]) PopBatch(max int) []T {
	if max <= 0 {
		return nil
	}
	return h.popBatchInto(make([]T, 0, max), max)
}

// popBatchInto is PopBatch appending into a caller-owned slice: the op
// buffer's prefetch refill (buffer.go) passes its standing buffer so a
// steady-state refill allocates nothing but the replacement descriptors.
// len(out) must be 0 relative to the max budget (callers pass out[:0]).
func (h *Handle[T]) popBatchInto(out []T, max int) []T {
	geo := h.BeginBatch() // see PushBatch: no sample, no countdown tick
	s := h.s
	width := geo.Width
	depth := geo.Depth
	sockIdx := h.SockIdx(geo)
	ord, pos, localN := h.Probe(geo)
	for len(out) < max {
		global := s.global.V.Load()
		floor := global - depth
		if floor < 0 {
			floor = 0
		}
		idx := h.Last[0]
		at := 0
		if ord != nil {
			at = pos[idx]
		}
		probes := 0
		randLeft := geo.Hops
		for probes < width && len(out) < max {
			if g := s.global.V.Load(); g != global {
				global = g
				floor = global - depth
				if floor < 0 {
					floor = 0
				}
				probes = 0
				randLeft = geo.Hops
				h.Ctr.Restarts++
			}
			d := geo.Subs[idx].load()
			h.Ctr.Probes++
			if avail := d.count - floor; avail > 0 {
				m := int64(max - len(out))
				if m > avail {
					m = avail
				}
				// Walk m nodes off the top to find the new top, CAS, and
				// only then collect the values: the detached chain is still
				// reachable from d.top, so the collection needs no staging
				// buffer (the old per-attempt `taken` slice was PopBatch's
				// last per-group allocation besides the descriptor).
				top := d.top
				for i := int64(0); i < m; i++ {
					top = top.next
				}
				if geo.Subs[idx].cas(d, &descriptor[T]{top: top, count: d.count - m}) {
					h.Last[0] = idx
					h.Ctr.Pops += uint64(m)
					for n, i := d.top, int64(0); i < m; i++ {
						out = append(out, n.value)
						n = n.next
					}
					continue
				}
				h.Ctr.CASFailures++
				h.Ctr.SocketCAS[sockIdx]++
				Yield(yield.PointCASFail)
				idx = HopIdx(h.Rng, width, ord, localN)
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
				idx = HopIdx(h.Rng, width, ord, localN)
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
		if global <= depth {
			// Window at its floor and full coverage found nothing: the
			// stack is out of items (within the empty-detection slack).
			break
		}
		next := global - geo.Shift
		if next < depth {
			next = depth
		}
		Yield(yield.PointWindowMove)
		if s.global.V.CompareAndSwap(global, next) {
			h.Ctr.WindowLowers++
		}
	}
	h.End()
	return out
}
