package core

import (
	"sync/atomic"
	"time"
	"weak"

	"stack2d/internal/xrand"
)

// Runtime is the per-handle half of the window kernel, embedded in both
// structures' handles: the locality anchors and RNG the searches use, the
// socket hint and its cached probe plan, the epoch pin, the work counters
// with their 1-in-64 latency sampler and periodic flush, and the op-buffer
// bookkeeping. A Runtime is owner-goroutine state — not safe for
// concurrent use — except epoch, bufCount and shared, which the kernel
// reads through its registry.
type Runtime[S, T any] struct {
	k *Kernel[S, T]
	// Rng drives the searches' random hops.
	Rng *xrand.State
	// Last holds the slot indices of the most recent successes — the
	// locality anchors. The stack uses Last[0]; the queue anchors its
	// enqueues at Last[0] and its dequeues at Last[1]. A pin re-anchors a
	// dangling anchor randomly after a width shrink.
	Last [2]int
	// Ctr is the handle's work counters (see OpStats), updated without
	// atomics on the hot path and published to shared periodically.
	Ctr OpStats

	// socket is the placement hint: the socket the owning goroutine is
	// believed to run on, defaulted by the creation-order heuristic and
	// overridden by Pin. Under a local-probe placement policy searches
	// visit slots homed on this socket first; CAS failures are attributed
	// to it in OpStats.SocketCAS. Always in [0, MaxPlacementSockets).
	socket int

	// planGeo/planSocket key the cached probe plan below: the local-first
	// permutation this handle walks (BuildProbePlan over the geometry's
	// slot homes, with a handle-private rotation of the remote section),
	// rebuilt lazily when the geometry or the pinned socket changes.
	planGeo    *Geometry[S]
	planSocket int
	planOrd    []int
	planPos    []int
	planLocalN int

	// sinceFlush counts operations since stats were last published to
	// shared (see End).
	sinceFlush int

	// latCountdown counts operations down to the next latency sample: one
	// operation in latencySampleInterval is timed end to end
	// (latSampling/latStart carry the in-flight sample between Begin and
	// End). A decrement-and-test countdown keeps the uncontended fast path
	// to one predicted-untaken branch and defers the clock read until after
	// the sample decision.
	latCountdown int
	latSampling  bool
	latStart     time.Time

	// Op-buffer state (inert until SetOpBuffer arms it). bufCap is the
	// combined-publication threshold; pending holds buffered,
	// not-yet-published values oldest-first; prefetch[prefStart:] holds
	// structurally removed but not-yet-delivered values in delivery order;
	// bufEpoch is the geometry epoch the buffers were last reconciled
	// with. publish, refill and giveBack are the structure's batch paths
	// (see Attach). bufCount is the atomically readable total of both
	// buffers, summed by Kernel.BufferedLen.
	bufCap    int
	pending   []T
	prefetch  []T
	prefStart int
	bufEpoch  uint64
	bufCount  atomic.Int64
	publish   func([]T)
	refill    func(out []T, max int) []T
	giveBack  func([]T)

	// epoch is the geometry epoch the handle is currently operating under,
	// or 0 when idle. Written only by the owner, read by reconfigurers to
	// detect quiescence of a superseded geometry.
	epoch atomic.Uint64

	// shared is the periodically flushed, atomically readable copy of Ctr,
	// consumed by StatsSnapshot. It is a separate allocation, held strongly
	// by the handle registry, so the final published counters outlive the
	// handle itself.
	shared *SharedCounters
}

// Attach initialises r as a handle of k and registers it for quiescence
// tracking, stats aggregation and buffered-resident sizing. publish is the
// structure's batch publication (the op buffer's flush), refill its batch
// removal (the prefetch refill, appending up to max values into out), and
// giveBack returns undelivered prefetched values, given in delivery order,
// when buffering is disarmed. The handle itself is held weakly: one the
// caller drops becomes collectable, and its registry entry is pruned on a
// later registration (folding its last published counters into the
// retired total), so the convenience API's handle pool does not grow the
// registry without bound. (Counters not yet flushed when a handle is abandoned — at
// most statsFlushInterval operations — are lost; call FlushStats before
// dropping a handle if they matter.)
func (k *Kernel[S, T]) Attach(r *Runtime[S, T], publish func([]T), refill func(out []T, max int) []T, giveBack func([]T)) {
	r.k = k
	r.Rng = xrand.New(k.seed.V.Add(0x9e3779b97f4a7c15))
	r.socket = HeuristicSocket(int(k.handleSeq.Add(1)-1), k.geo.Load().nsockets)
	r.latCountdown = latencySampleInterval
	r.shared = &SharedCounters{}
	r.publish, r.refill, r.giveBack = publish, refill, giveBack
	k.hMu.Lock()
	live := k.handles[:0]
	for _, old := range k.handles {
		if old.wp.Value() != nil {
			live = append(live, old)
		} else {
			k.retired.Add(old.shared.Load())
		}
	}
	k.handles = append(live, handleEntry[S, T]{wp: weak.Make(r), shared: r.shared})
	k.hMu.Unlock()
}

// Pin declares the socket the owning goroutine runs on, overriding the
// creation-order heuristic Attach applied. Under a local-probe placement
// policy (see Kernel.SetPlacement and DESIGN.md §7) subsequent operations
// visit slots homed on this socket before remote ones, and the handle's
// CAS failures are attributed to it in StatsSnapshot — the signal the
// adaptive controller uses to home new slots near the contention.
// Negative ids are treated as 0 and ids are folded modulo
// MaxPlacementSockets; at operation time a hint beyond the configured
// socket count is further folded modulo that count (see SockIdx), so the
// socket a handle probes as always matches the socket its contention is
// attributed to. Pinning never affects window semantics, only probe order.
func (r *Runtime[S, T]) Pin(socket int) {
	r.socket = max(socket, 0) % MaxPlacementSockets
}

// Socket returns the handle's current placement hint.
func (r *Runtime[S, T]) Socket() int { return r.socket }

// SockIdx reduces the handle's socket hint to the geometry's socket count
// — the same reduction Probe applies when building the walk — so the
// socket a handle contends AS is the socket its CAS pressure is attributed
// TO. Without this, a handle pinned beyond the configured socket count
// would probe as socket (hint mod nsockets) but report pressure on the raw
// hint, and LocalFirst would discard the requester.
func (r *Runtime[S, T]) SockIdx(geo *Geometry[S]) int {
	if geo.nsockets > 1 {
		return r.socket % geo.nsockets
	}
	return r.socket
}

// Probe returns the handle's probe plan for the pinned geometry: the slot
// permutation to walk (same-socket slots first, remote spill section
// privately rotated), its slot→position inverse, and the local-slot count.
// All nil/0 for placement-blind geometries, selecting the plain index-order
// search. The plan is cached per (geometry, socket), so the steady-state
// cost is two pointer compares.
func (r *Runtime[S, T]) Probe(geo *Geometry[S]) (ord, pos []int, localN int) {
	if !geo.localProbe {
		return nil, nil, 0
	}
	if r.planGeo != geo || r.planSocket != r.socket {
		s := r.socket % geo.nsockets
		r.planOrd, r.planPos, r.planLocalN = BuildProbePlan(geo.homes, s, r.Rng.Intn(geo.Width))
		r.planGeo, r.planSocket = geo, r.socket
	}
	return r.planOrd, r.planPos, r.planLocalN
}

// armLatSample opens a latency sample: reset the countdown, mark the
// sample in flight, read the clock. Deliberately noinline: it runs once per
// latencySampleInterval operations, and keeping its body (the time.Now
// call above all) out of Begin leaves the uncontended fast path with only
// the countdown decrement-and-test — the clock is read strictly after the
// sample decision.
//
//go:noinline
func (r *Runtime[S, T]) armLatSample() {
	r.latCountdown = latencySampleInterval
	r.latSampling = true
	r.latStart = time.Now()
}

// closeLatSample records the in-flight sample's bucket; noinline for the
// same reason as armLatSample.
//
//go:noinline
func (r *Runtime[S, T]) closeLatSample() {
	r.latSampling = false
	r.Ctr.Latency[LatencyBucket(time.Since(r.latStart))]++
}

// pinGeo publishes the handle as active on the current geometry and
// returns it. The re-check after the epoch store closes the race with a
// concurrent geometry swap: once pinGeo returns, any reconfigurer that
// superseded geo will wait for this handle's End before touching stranded
// slots.
func (r *Runtime[S, T]) pinGeo() *Geometry[S] {
	for {
		geo := r.k.geo.Load()
		r.epoch.Store(geo.Epoch)
		if r.k.geo.Load() == geo {
			// An anchor can dangle after a width shrink; re-anchor.
			if r.Last[0] >= geo.Width {
				r.Last[0] = r.Rng.Intn(geo.Width)
			}
			if r.Last[1] >= geo.Width {
				r.Last[1] = r.Rng.Intn(geo.Width)
			}
			return geo
		}
	}
}

// Begin pins the current geometry for one operation and takes the 1-in-N
// latency sample decision: a sampled operation is timed from here to the
// matching End, so the estimate covers the whole search including window
// maintenance and restarts.
func (r *Runtime[S, T]) Begin() *Geometry[S] {
	r.latCountdown--
	if r.latCountdown <= 0 {
		r.armLatSample()
	}
	return r.pinGeo()
}

// BeginBatch is Begin without the sampling countdown. A batch is many
// operations under one pin: its end-to-end time is not a per-operation
// latency, so it must not open a sample — and it must not consume a
// countdown tick either, or a batch landing on the sample point would
// silently eat it (TestLatencySampleStridePinned).
func (r *Runtime[S, T]) BeginBatch() *Geometry[S] { return r.pinGeo() }

// End marks the handle idle, closes an in-flight latency sample, and
// periodically publishes its counters.
func (r *Runtime[S, T]) End() {
	r.epoch.Store(0)
	if r.latSampling {
		r.closeLatSample()
	}
	r.sinceFlush++
	if r.sinceFlush >= statsFlushInterval {
		r.FlushStats()
	}
}

// Stats returns a copy of the handle's counters.
func (r *Runtime[S, T]) Stats() OpStats { return r.Ctr }

// ResetStats zeroes the handle's counters (and their published copy).
// Samplers holding a previous StatsSnapshot baseline will see this as a
// shrinking total; OpStats.Sub saturates, so the affected interval reads
// as zero rather than garbage.
func (r *Runtime[S, T]) ResetStats() {
	r.Ctr = OpStats{}
	r.FlushStats()
}

// FlushStats immediately publishes the handle's counters to the shared
// copy read by StatsSnapshot. Useful when a worker quiesces and a sampler
// should see its final totals at once.
func (r *Runtime[S, T]) FlushStats() {
	r.sinceFlush = 0
	r.shared.Store(r.Ctr)
}

// Per-handle operation buffering: the combined-publication fast path
// (DESIGN.md §11). An armed handle batches its insertions locally and
// publishes them through the structure's batch path when the buffer fills,
// and refills a local prefetch through the batch removal — so the
// uncontended steady state touches shared cache lines once per bufCap
// operations instead of once per operation. Buffering is opt-in per handle
// (SetOpBuffer) and invisible to the singleton paths. A buffered operation
// takes effect (linearizes) at its publish or serve point, not at its API
// call; the checkers budget the displacement through
// seqspec.BufferAllowance. Drain and teardown require the owner to
// FlushOps first, since only the owning goroutine may touch a handle's
// buffers.

// SetOpBuffer arms (n >= 1) or disarms (n <= 0) operation buffering with a
// combined-publication threshold of n operations. Disarming — and
// re-arming with a different threshold — first publishes pending values
// and hands undelivered prefetched values back to the structure.
func (r *Runtime[S, T]) SetOpBuffer(n int) {
	if r.bufCap > 0 {
		r.FlushOps()
		if r.prefStart < len(r.prefetch) {
			r.giveBack(r.prefetch[r.prefStart:])
		}
		clear(r.prefetch)
		r.prefetch, r.prefStart = r.prefetch[:0], 0
		r.syncBufCount()
	}
	if n <= 0 {
		r.bufCap, r.pending, r.prefetch = 0, nil, nil
		return
	}
	r.bufCap = n
	r.pending = make([]T, 0, n)
	r.prefetch = make([]T, 0, n)
	r.prefStart = 0
	r.bufEpoch = r.k.geo.Load().Epoch
}

// OpBuffer returns the armed combined-publication threshold (0 when
// buffering is off).
func (r *Runtime[S, T]) OpBuffer() int { return r.bufCap }

// BufferedCounts reports the handle's private residents: pending values
// not yet published, and prefetched values not yet delivered. Foreign
// readers get the sum via the structure's Len.
func (r *Runtime[S, T]) BufferedCounts() (pending, undelivered int) {
	return len(r.pending), len(r.prefetch) - r.prefStart
}

// syncBufCount republishes the atomically readable buffered total after
// any buffer mutation; one uncontended store to the handle's own line.
func (r *Runtime[S, T]) syncBufCount() {
	r.bufCount.Store(int64(len(r.pending) + len(r.prefetch) - r.prefStart))
}

// epochFlush reconciles the buffers with geometry epoch e. Hold and Serve
// compare the active epoch with bufEpoch first and call it on a change
// (the stack serves a pending push only when the epoch is current), so
// values buffered under a superseded geometry are published into the new
// one before the next buffered operation proceeds: a reconfiguration is
// never followed by an arbitrarily stale combined publish. Prefetched
// values were already removed from the structure and keep serving. The
// comparison is written out at each site, and the flush kept out of line,
// so the buffered fast path makes no extra call.
func (r *Runtime[S, T]) epochFlush(e uint64) {
	r.bufEpoch = e
	r.FlushOps()
}

// FlushOps publishes all pending buffered values immediately as one
// combined batch. It does not disturb the prefetch. Call before quiescing,
// draining the structure, or abandoning the handle (an abandoned handle's
// buffered values are lost, exactly like any removed-but-unprocessed value
// held by its goroutine). No-op when nothing is pending.
func (r *Runtime[S, T]) FlushOps() {
	if len(r.pending) > 0 {
		r.publish(r.pending)
		clear(r.pending)
		r.pending = r.pending[:0]
		r.syncBufCount()
	}
}

// Hold buffers v as a pending publication, publishing every pending value
// as one combined batch once bufCap are pending. It reports false, holding
// nothing, when buffering is off: the caller then runs the singleton
// operation.
func (r *Runtime[S, T]) Hold(v T) bool {
	if r.bufCap <= 0 {
		return false
	}
	if e := r.k.geo.Load().Epoch; e != r.bufEpoch {
		r.epochFlush(e)
	}
	r.pending = append(r.pending, v)
	if len(r.pending) >= r.bufCap {
		r.FlushOps()
		return true
	}
	r.syncBufCount()
	return true
}

// Serve delivers the next prefetched value, first refilling an exhausted
// prefetch with one combined batch removal of up to bufCap values. ok is
// false when the refill came back empty.
func (r *Runtime[S, T]) Serve() (v T, ok bool) {
	if e := r.k.geo.Load().Epoch; e != r.bufEpoch {
		r.epochFlush(e)
	}
	if r.prefStart >= len(r.prefetch) {
		r.prefetch, r.prefStart = r.refill(r.prefetch[:0], r.bufCap), 0
		if len(r.prefetch) == 0 {
			r.syncBufCount()
			return v, false
		}
	}
	v = r.prefetch[r.prefStart]
	var zero T
	r.prefetch[r.prefStart] = zero
	r.prefStart++
	r.syncBufCount()
	return v, true
}
