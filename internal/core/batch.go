package core

import "stack2d/internal/yield"

// Batched operations. A batch applies several pushes (or pops) to one
// sub-stack with a single descriptor CAS, amortising the search and the
// coherence traffic. The window discipline is preserved exactly: a batch
// of m pushes is accepted only while height+m <= Global (a slot's height
// is its count plus its base, see subStack), i.e. it is
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
			ss := geo.Subs[idx]
			d := ss.load()
			h.Ctr.Probes++
			if headroom := global - d.count - ss.base.Load(); headroom > 0 {
				m := int64(len(remaining))
				if m > headroom {
					m = headroom
				}
				// Chain the first m values so remaining[m-1] is topmost: it
				// goes in the new descriptor's embedded top cell, and the
				// m-1 values under it in cells carved from one slab and
				// linked in place, so a combined publish costs one slab
				// plus one descriptor per CAS group instead of one
				// allocation per value (the slab stays reachable until
				// every cell carved from it is popped and dropped — the
				// lifetime of a batch's top cell, which batched
				// producer/consumer traffic turns over promptly).
				next := d.head()
				if m > 1 {
					slab := make([]node[T], m-1)
					for i := range slab {
						slab[i] = node[T]{value: remaining[i], next: next}
						next = &slab[i]
					}
				}
				nd := &descriptor[T]{top: node[T]{value: remaining[m-1], next: next}, count: d.count + m, prev: d}
				if ss.cas(d, nd) {
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
// steady-state refill allocates at most one replacement descriptor per
// CAS group.
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
			ss := geo.Subs[idx]
			d := ss.load()
			base := ss.base.Load()
			h.Ctr.Probes++
			if avail := min(d.count, d.count+base-floor); avail > 0 {
				m := int64(max - len(out))
				if m > avail {
					m = avail
				}
				// Walk m cells off the top to find the new top, CAS, and
				// only then collect the values: the detached chain is still
				// reachable from d, so the collection needs no staging
				// buffer. The new state is d.below(m, top): an existing
				// lower state when one has count d.count-m, else one new
				// descriptor.
				top := d.head()
				for i := int64(0); i < m; i++ {
					top = top.next
				}
				if ss.cas(d, d.below(m, top)) {
					h.Last[0] = idx
					h.Ctr.Pops += uint64(m)
					for n, i := d.head(), int64(0); i < m; i++ {
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
			ss.sinkBase(base, floor) // see Pop
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
