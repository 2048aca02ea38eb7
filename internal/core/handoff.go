package core

// The stack's reconfiguration hooks (see Hooks): the warm shrink handoff
// and the Global raise that follows every geometry publication.

// raiseGlobal re-establishes global >= depth after a reconfiguration, so
// Pop's floor arithmetic starts sane on the new geometry. (Stale-geometry
// pops may pull it below again for a moment; the operations clamp the
// floor at zero, so this is a performance nicety, not a safety
// requirement.)
func (s *Stack[T]) raiseGlobal(depth int64) {
	for {
		g := s.global.V.Load()
		if g >= depth || s.global.V.CompareAndSwap(g, depth) {
			return
		}
	}
}

// spliceStranded is the warm shrink handoff: each dropped sub-stack's whole
// chain is spliced, in one descriptor CAS, on top of the surviving sub-stack
// currently holding the fewest items (read from the live descriptor
// counters), followed by one batched Global raise that restores push
// headroom. Compared with the earlier approach — re-pushing every stranded
// item through one internal handle's normal Push path, which forced a
// window raise each time the re-pushes exhausted the band (the transient
// k-spike of DESIGN.md §4 invariant 2) — this advances the window once
// instead of once per exhausted band, touches each target once per dropped
// slot instead of once per item, and spreads the load by the live counters
// instead of piling it wherever one handle's search happened to land. The
// stranded chain keeps its internal order; the descriptor count stays equal
// to the real list length, so window validity and emptiness detection are
// unaffected.
//
// Safety: after old-epoch quiescence the dropped slots, their descriptors
// and their cells are exclusively ours, so writing the chain bottom's next
// pointer is race-free until the CAS publishes it (the one write to a
// once-published cell, DESIGN.md §3); a CAS loss to a concurrent operation
// on the target just re-picks the least-loaded target and retries. The
// dropped chain's own descriptors survive only as cells of the spliced
// list: no prev link reaches them, so their stale counts are never read.
//
// The returned value is this migration's addition to the displacement
// bound, which the kernel accumulates and forwards to the shrink-handoff
// observer event.
func (s *Stack[T]) spliceStranded(next *Geometry[*subStack[T]], dropped []*subStack[T]) int64 {
	var disp int64
	for _, ss := range dropped {
		d := ss.load()
		ss.desc.Store(&descriptor[T]{})
		if d.count == 0 {
			continue
		}
		// The spliced state copies the chain's top cell and links prev
		// to the target's old state, which its bottom link now reaches.
		nd := &descriptor[T]{top: d.top}
		bottom := &nd.top
		for bottom.next != nil {
			bottom = bottom.next
		}
		for {
			tgt, td := next.Subs[0], next.Subs[0].load()
			for _, cand := range next.Subs[1:] {
				if cd := cand.load(); cd.count < td.count {
					tgt, td = cand, cd
				}
			}
			bottom.next = td.head()
			nd.count, nd.prev = td.count+d.count, td
			if tgt.cas(td, nd) {
				disp += td.count + d.count
				break
			}
		}
	}
	// Each migrated item lands above at most its target's population and
	// below nothing it displaced; the sum of (stranded + target) populations
	// over the splices is therefore an upper bound on the extra LIFO
	// displacement this shrink can have caused (the kernel accumulates it).

	// Restore push headroom. On a large shrink every survivor receives a
	// chain, so all counts can sit at or above the untouched Global at
	// once and the next Push would stall through repeated full-coverage
	// passes, each raising Global by only shift and restarting every
	// concurrent search — the funnel's spike in client clothing. One
	// batched raise to shift headroom above the lowest survivor is
	// the advance the window would have made had the migrated items been
	// pushed normally; counts stay within the usual band, and pops at
	// worst lower the window one extra round. (Global is not monotone —
	// concurrent pops may lower it — but one successful raise-if-below
	// CAS is all this needs.)
	if disp > 0 {
		minHeight := next.Subs[0].load().count + next.Subs[0].base.Load()
		for _, ss := range next.Subs[1:] {
			if c := ss.load().count + ss.base.Load(); c < minHeight {
				minHeight = c
			}
		}
		for target := minHeight + next.Shift; ; {
			cur := s.global.V.Load()
			if cur >= target || s.global.V.CompareAndSwap(cur, target) {
				break
			}
		}
	}
	return disp
}
