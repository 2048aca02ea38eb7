package twodqueue

import (
	"stack2d/internal/core"
	"stack2d/internal/pad"
)

// The queue's reconfiguration hooks (see core.Hooks): the ceiling raise
// that follows every geometry publication and the warm shrink handoff.

// raiseGlobals keeps both ceilings at or above the new depth so the windows
// start sane on the new geometry (the globals are monotone, so a simple
// raise-if-below CAS loop suffices).
func (q *Queue[T]) raiseGlobals(depth int64) {
	for _, g := range [...]*pad.Int64Line{&q.globalEnq, &q.globalDeq} {
		for {
			cur := g.V.Load()
			if cur >= depth || g.V.CompareAndSwap(cur, depth) {
				break
			}
		}
	}
}

// handoffStranded is the warm shrink handoff: the dropped sub-queues are
// drained round-robin — one item per slot per round, which approximately
// reconstructs the stranded items' global FIFO order, since enqueues were
// themselves spread across the slots — and each item is appended directly
// to the surviving sub-queue currently holding the fewest items, bumping
// its enqueue window counter so the counter keeps meaning "completed
// enqueues". Compared with the earlier approach — re-enqueueing every item
// through one internal handle's normal window search — this never touches
// the dequeue ceiling, advances the enqueue ceiling exactly once in a
// batch after the drain (the old funnel raised it once per exhausted
// window, the transient spike of DESIGN.md §5), burns no probes, and
// spreads the migrated population by the live counters instead of piling
// it wherever one handle's search landed.
//
// The load table is seeded from the live populations and updated locally as
// items are placed; concurrent client operations keep mutating the real
// lengths, so the balance is approximate — the displacement bound below
// does not depend on it being exact. The return value is this migration's
// addition to ShrinkDisplacementBound, which the caller forwards into the
// handoff's structural event.
func (q *Queue[T]) handoffStranded(next *core.Geometry[*subQueue[T]], dropped []*subQueue[T]) int64 {
	loads := make([]int64, len(next.Subs))
	var live, enqStart int64
	for i, sq := range next.Subs {
		loads[i] = sq.len()
		live += loads[i]
		enqStart += sq.enqs.Load()
	}
	stranded := int64(0)
	for _, sq := range dropped {
		stranded += sq.len()
	}
	if stranded == 0 {
		// Nothing to migrate: no displacement happened and no counter was
		// bumped, so neither the accounting nor the window raise below has
		// anything to justify it (mirroring the stack's disp > 0 guard).
		return 0
	}
	for moved := true; moved; {
		moved = false
		for _, sq := range dropped {
			v, ok := sq.dequeue()
			if !ok {
				continue
			}
			moved = true
			j := 0
			for i := 1; i < len(loads); i++ {
				if loads[i] < loads[j] {
					j = i
				}
			}
			next.Subs[j].enqueue(v)
			loads[j]++
		}
	}
	// A migrated item re-enters behind at most the live population, the
	// stranded items ahead of it, and whatever client enqueues landed in
	// the survivors while the drain ran. The latter is read exactly (up to
	// in-flight slack) from the survivors' own atomic enqueue counters:
	// the delta over the drain minus our own bumps is the concurrent
	// client traffic placed ahead of later-migrated items.
	var enqEnd, minEnqs int64
	for i, sq := range next.Subs {
		e := sq.enqs.Load()
		enqEnd += e
		if i == 0 || e < minEnqs {
			minEnqs = e
		}
	}
	concurrent := enqEnd - enqStart - stranded
	if concurrent < 0 {
		concurrent = 0
	}
	disp := live + stranded + concurrent

	// Reopen the enqueue window. The bumps above push every survivor's
	// counter toward (or past) the untouched GlobalEnq ceiling, and with
	// all survivors enqueue-invalid at once, every client enqueue would
	// stall through ~migrated/(shift·width) consecutive coverage-and-raise
	// rounds — a structure-wide enqueue outage. One batched raise to
	// shift headroom above the least-loaded survivor is exactly the
	// advance the window would have made had the migrated items arrived
	// as ordinary enqueues: every counter stays at or above the window
	// floor, ceiling − depth, so the Theorem 1 accounting is unchanged,
	// and unlike the retired funnel it happens once, not once per
	// exhausted band. A survivor that took more than its share of the
	// migrated items may sit above the ceiling; it takes no client enqueue
	// until the window passes it. (The monotone raise-if-below CAS loop
	// tolerates concurrent client raises.)
	for target := minEnqs + next.Shift; ; {
		cur := q.globalEnq.V.Load()
		if cur >= target || q.globalEnq.V.CompareAndSwap(cur, target) {
			break
		}
	}
	return disp
}
