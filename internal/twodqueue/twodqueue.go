// Package twodqueue generalises the 2D window technique to a FIFO queue —
// the direction the paper's conclusion announces as future work ("we are
// working towards generalizing our design to work for other concurrent data
// structures").
//
// The structure mirrors the 2D-Stack: `width` Michael–Scott sub-queues with
// two windows, one per end. Each sub-queue carries two monotonic counters,
// enqueues and dequeues completed. An Enqueue may use a sub-queue only while
// its enqueue count is below the shared GlobalEnq ceiling; a Dequeue only
// while its dequeue count is below GlobalDeq. When a full round-robin pass
// finds every sub-queue at its ceiling, the corresponding window is raised
// by `shift`. The search (locality anchor, random hops, round-robin
// fallback, hop-on-contention) is the stack's search verbatim.
//
// Relaxation: within one window epoch each sub-queue completes at most
// `depth` dequeues, so items dequeue at most (2·depth + shift)·(width − 1)
// positions out of FIFO order in sequential executions — the direct
// analogue of the stack's (corrected) Theorem 1 constant, shared so that
// one formula serves both structures (exhaustive small-geometry
// exploration realises queue distances only up to depth·(width − 1), the
// monotone ceilings never re-expose a stale front; see
// seqspec.ExploreQueue and DESIGN.md §2). Under concurrency the monotonic
// counters are incremented after the sub-queue operation completes, adding
// up to one position of slack per in-flight operation (at most the number
// of concurrent handles); see K and the tests in twodqueue_test.go.
//
// # Sub-queue layout
//
// Each sub-queue (subqueue.go) is an inline Michael–Scott list laid out as
// two cache lines: head with the dequeue counter, tail with the enqueue
// counter. An operation's window check, CAS and counter bump stay on its
// own end's line, so an enqueue costs three atomic RMWs and writes two
// lines (the last node and the tail line), a dequeue two RMWs and one
// line. There is no length counter: both counters start at the join floor,
// so enqs − deqs is the population, exact when quiescent. An Enqueue
// allocates its node once, before the search, and relinks that node on
// every retry. The node carries no enqueue ordinal: an ordinal would make
// the window check exact, but it grows the node from 16 to 24 B for uint64
// items, half again the allocated bytes per operation. DESIGN.md §5 has
// the accounting.
//
// # Live reconfiguration
//
// The queue is the window kernel of internal/core (core.Kernel) over
// Michael–Scott sub-queues: geometry publication and epoch pinning, the
// handle registry and its stats, placement, the structural observer, the
// op-buffer bookkeeping and the Reconfigure skeleton are the stack's, so
// *Queue satisfies internal/adapt's Reconfigurable and internal/obs's
// Source directly. This package keeps only what differs: the sub-queue
// with its two counters, the Enqueue/Dequeue searches and batches, the
// round-robin shrink handoff and the FIFO buffer serve rule. The counters
// use core.OpStats: Pushes/Pops/EmptyPops are enqueues, non-empty and empty
// dequeues, CASFailures are contended sub-queue rounds at either end,
// WindowRaises are enqueue-end window moves and WindowLowers dequeue-end
// ones. See DESIGN.md §4 and §5.
package twodqueue

import (
	"fmt"

	"stack2d/internal/core"
	"stack2d/internal/pad"
	"stack2d/internal/yield"
)

// Config is the window geometry; the queue shares the stack's (see
// core.Config — K is the same (2·depth + shift)(width − 1), comfortably
// safe for the queue, whose exhaustive small-geometry exploration realises
// distances only up to depth·(width − 1)).
type Config = core.Config

// DefaultConfig is the stack's high-throughput configuration for p
// expected threads (core.DefaultConfig).
func DefaultConfig(p int) Config { return core.DefaultConfig(p) }

// enq and deq index the handle's two locality anchors (core.Runtime.Last).
const (
	enq = 0
	deq = 1
)

// Queue is a lock-free 2D relaxed FIFO queue: the window kernel over
// Michael–Scott sub-queues. Create with New; obtain one Handle per
// goroutine. A Queue must not be copied.
type Queue[T any] struct {
	core.Kernel[*subQueue[T], T]
	// globalEnq/globalDeq are the per-end window ceilings. Unlike the
	// stack's Global they are monotone non-decreasing: both ends only ever
	// advance.
	globalEnq pad.Int64Line
	globalDeq pad.Int64Line
}

// New returns an empty 2D-Queue.
func New[T any](cfg Config) (*Queue[T], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	q := &Queue[T]{}
	q.globalEnq.V.Store(cfg.Depth)
	q.globalDeq.V.Store(cfg.Depth)
	q.Init(cfg, core.Hooks[*subQueue[T]]{NewSlot: q.newSubQueue, Raise: q.raiseGlobals, Handoff: q.handoffStranded})
	return q, nil
}

// MustNew is New that panics on config error.
func MustNew[T any](cfg Config) *Queue[T] {
	q, err := New[T](cfg)
	if err != nil {
		panic(err)
	}
	return q
}

// Len sums sub-queue populations plus every live handle's buffered
// residents (pending enqueues and prefetched-but-undelivered values), so
// op-buffered items are never phantom-invisible to sizing; approximate
// under concurrency.
func (q *Queue[T]) Len() int {
	n := 0
	for _, sq := range q.Geo().Subs {
		n += int(sq.len())
	}
	return n + q.BufferedLen()
}

// GlobalEnq exposes the enqueue window ceiling; diagnostics only.
func (q *Queue[T]) GlobalEnq() int64 { return q.globalEnq.V.Load() }

// GlobalDeq exposes the dequeue window ceiling; diagnostics only.
func (q *Queue[T]) GlobalDeq() int64 { return q.globalDeq.V.Load() }

// SubLens returns a snapshot of each sub-queue's population; diagnostics
// and tests.
func (q *Queue[T]) SubLens() []int {
	subs := q.Geo().Subs
	out := make([]int, len(subs))
	for i, sq := range subs {
		out[i] = int(sq.len())
	}
	return out
}

// CheckInvariants verifies the structure while no operation is in flight;
// tests and fuzzing. For each sub-queue:
//   - the list from the dummy holds exactly enqs − deqs items and ends at
//     the tail (tail.next == nil);
//   - the enqueue counter sits at or above the enqueue window's floor,
//     GlobalEnq − depth, so no sub-queue can absorb more than depth
//     enqueues before the window next moves;
//   - the dequeue counter sits at or below the dequeue ceiling, unless it
//     is still the join floor of a width growth (newSubQueue), which lies
//     at or below GlobalEnq − depth and moves only once the dequeue window
//     has passed it.
//
// A shrink handoff may leave a survivor's enqueue counter above GlobalEnq,
// so that side has no upper band. The bands are those of a fixed depth:
// after a SetWindow lowers depth, or a window move by an operation still
// pinned to the previous geometry, a counter may sit below the new floor
// until its window next moves.
func (q *Queue[T]) CheckInvariants() error {
	geo := q.Geo()
	if len(geo.Subs) != geo.Width {
		return fmt.Errorf("twodqueue: geometry width %d but %d sub-queues", geo.Width, len(geo.Subs))
	}
	gEnq, gDeq := q.globalEnq.V.Load(), q.globalDeq.V.Load()
	for i, sq := range geo.Subs {
		enqs, deqs := sq.enqs.Load(), sq.deqs.Load()
		if enqs < deqs {
			return fmt.Errorf("twodqueue: sub-queue %d has enqs %d below deqs %d", i, enqs, deqs)
		}
		last, n := sq.head.Load(), int64(0)
		for next := last.next.Load(); next != nil && n <= enqs-deqs; next = next.next.Load() {
			last = next
			n++
		}
		if n != enqs-deqs {
			return fmt.Errorf("twodqueue: sub-queue %d counts enqs−deqs = %d but its list holds >= %d", i, enqs-deqs, n)
		}
		if tail := sq.tail.Load(); tail != last {
			return fmt.Errorf("twodqueue: sub-queue %d tail is not the last of its %d list items", i, n)
		}
		if floor := gEnq - geo.Depth; enqs < floor {
			return fmt.Errorf("twodqueue: sub-queue %d enqs %d below the enqueue window floor %d", i, enqs, floor)
		}
		if deqs > max(gDeq, gEnq-geo.Depth) {
			return fmt.Errorf("twodqueue: sub-queue %d deqs %d above the dequeue ceiling %d and the join floor %d", i, deqs, gDeq, gEnq-geo.Depth)
		}
	}
	return nil
}

// Drain removes all items; teardown/testing helper. Handles with armed op
// buffers must FlushOps first — Drain only sees published items (buffered
// residents belong to their owning goroutines).
func (q *Queue[T]) Drain() []T {
	h := q.NewHandle()
	var out []T
	for {
		v, ok := h.Dequeue()
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

// Handle is the per-goroutine operation context: the kernel Runtime, with
// the enqueue anchor in Last[enq] and the dequeue anchor in Last[deq]. Not
// safe for concurrent use of the same handle; the Queue is fully
// concurrent across handles.
type Handle[T any] struct {
	core.Runtime[*subQueue[T], T]
	q *Queue[T]
}

// NewHandle returns an operation handle anchored at random sub-queues and
// registered for quiescence tracking and stats aggregation (weakly; see
// core.Kernel.Attach).
func (q *Queue[T]) NewHandle() *Handle[T] {
	h := &Handle[T]{q: q}
	q.Attach(&h.Runtime, h.EnqueueBatch, h.dequeueBatchInto, h.EnqueueBatch)
	width := q.Geo().Width
	h.Last[enq] = h.Rng.Intn(width)
	h.Last[deq] = h.Rng.Intn(width)
	return h
}

// Enqueue adds v at the (relaxed) back of the queue. The search mirrors the
// stack's Push: locality anchor, random hops, round-robin coverage, a hop on
// contention (a failed single-round sub-enqueue), restart on any observed
// window move.
func (h *Handle[T]) Enqueue(v T) {
	geo := h.Begin()
	q := h.q
	width := geo.Width
	// Under a local-probe placement policy the search walks a per-socket
	// permutation (same-socket slots first); ord is nil otherwise and the
	// pre-placement path runs unchanged. Both walks cover all width slots,
	// so the coverage discipline is identical (DESIGN.md §7).
	ord, pos, localN := h.Probe(geo)
	sockIdx := h.SockIdx(geo)
	// One node for the whole search: a lost attempt leaves it unlinked, so
	// every retry links the same node.
	n := &node[T]{value: v}
	for {
		global := q.globalEnq.V.Load()
		idx := h.Last[enq]
		at := 0
		if ord != nil {
			at = pos[idx]
		}
		probes := 0
		randLeft := geo.Hops
		for probes < width {
			if g := q.globalEnq.V.Load(); g != global {
				global = g
				probes = 0
				randLeft = geo.Hops
				h.Ctr.Restarts++
			}
			sub := geo.Subs[idx]
			h.Ctr.Probes++
			if sub.enqs.Load() < global {
				if sub.tryEnqueue(n) {
					sub.enqs.Add(1)
					h.Last[enq] = idx
					h.Ctr.Pushes++
					h.End()
					return
				}
				// Contention: another enqueuer made progress here; hop to a
				// random sub-queue and restart the coverage count.
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
		core.Yield(yield.PointWindowMove)
		if q.globalEnq.V.CompareAndSwap(global, global+geo.Shift) {
			h.Ctr.WindowRaises++
		}
	}
}

// Dequeue removes and returns a value within the relaxation window; ok is
// false when every sub-queue was observed empty in one full pass. Dequeue-
// end window moves are counted as WindowLowers — the front-end analogue of
// the stack's downward moves — so the controller's churn signal sums both
// ends.
func (h *Handle[T]) Dequeue() (v T, ok bool) {
	geo := h.Begin()
	q := h.q
	width := geo.Width
	ord, pos, localN := h.Probe(geo) // see Enqueue
	sockIdx := h.SockIdx(geo)
	for {
		global := q.globalDeq.V.Load()
		idx := h.Last[deq]
		at := 0
		if ord != nil {
			at = pos[idx]
		}
		probes := 0
		randLeft := geo.Hops
		sawInvalidNonEmpty := false
		for probes < width {
			if g := q.globalDeq.V.Load(); g != global {
				global = g
				probes = 0
				randLeft = geo.Hops
				sawInvalidNonEmpty = false
				h.Ctr.Restarts++
			}
			sub := geo.Subs[idx]
			h.Ctr.Probes++
			if sub.deqs.Load() < global {
				if val, got, contended := sub.tryDequeue(); got {
					sub.deqs.Add(1)
					h.Last[deq] = idx
					h.Ctr.Pops++
					h.End()
					return val, true
				} else if contended {
					// Another dequeuer beat us here: hop away, fresh pass.
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
			} else if !sub.empty() {
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
		if !sawInvalidNonEmpty {
			// Full coverage saw only empty sub-queues (any non-empty one
			// was dequeue-valid and yielded nothing): report empty.
			h.Ctr.EmptyPops++
			h.End()
			var zero T
			return zero, false
		}
		// Items exist beyond the current window: raise it and retry.
		core.Yield(yield.PointWindowMove)
		if q.globalDeq.V.CompareAndSwap(global, global+geo.Shift) {
			h.Ctr.WindowLowers++
		}
	}
}
