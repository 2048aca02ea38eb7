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
	"stack2d/internal/core"
	"stack2d/internal/msqueue"
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

// subQueue is one sub-structure: the Michael–Scott queue plus its two
// monotonic window counters, all padded onto private cache lines. Slots are
// held by pointer so successive geometries can share surviving sub-queues
// without moving an item.
type subQueue[T any] struct {
	q    *msqueue.Queue[T]
	_    pad.CacheLinePad
	enqs pad.Int64Line // completed enqueues (plus the join floor, see newSubQueue)
	deqs pad.Int64Line // completed dequeues (plus the join floor)
}

// newSubQueue is the queue's Hooks.NewSlot: an empty sub-queue joining the
// structure at the enqueue window's floor (GlobalEnq − depth, zero at
// construction). A sub-queue added by a width growth must not start its
// counters at zero: the windows have typically advanced far past zero, and
// a zero-count newcomer would be enqueue-valid for the whole distance — an
// unbounded relaxation hole. Starting at the floor lets it absorb at most
// `depth` enqueues per window, like every other sub-queue. Both counters
// start there, so the newcomer is empty by its own count and its j-th item
// carries the same ordinal at both ends: it becomes dequeue-valid when the
// dequeue window reaches the items enqueued alongside it. (Starting the
// dequeue counter at the dequeue window's floor instead would let fresh
// items leave ahead of the whole backlog of a long queue.)
func (q *Queue[T]) newSubQueue(depth int64) *subQueue[T] {
	floor := max(q.globalEnq.V.Load()-depth, 0)
	sq := &subQueue[T]{q: msqueue.New[T]()}
	sq.enqs.V.Store(floor)
	sq.deqs.V.Store(floor)
	return sq
}

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
		n += sq.q.Len()
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
		out[i] = sq.q.Len()
	}
	return out
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
			if sub.enqs.V.Load() < global {
				if sub.q.TryEnqueue(v) {
					sub.enqs.V.Add(1)
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
			if sub.deqs.V.Load() < global {
				if val, got, contended := sub.q.TryDequeue(); got {
					sub.deqs.V.Add(1)
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
