package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"weak"

	"stack2d/internal/pad"
	"stack2d/internal/yield"
)

// The window kernel (DESIGN.md §4). The 2D design is a window over `width`
// sub-structures, and nothing in that window cares whether a slot holds a
// LIFO or a FIFO. Kernel is that window, generic over the slot type S (and
// the element type T, for the handles' op buffers): geometry publication
// and epoch pinning, the weak handle registry with its stats aggregation,
// placement, the structural observer, op-buffer residency and the
// reconfiguration skeleton. Stack embeds Kernel[*subStack[T], T];
// internal/twodqueue's Queue embeds Kernel[*subQueue[T], T]. Each structure
// keeps only its sub-structure, its searches, its shrink handoff and its
// buffer serve rule, and plugs the three structure-specific steps of a
// reconfiguration in through Hooks.

// Geometry is one immutable snapshot of a structure's shape: the window
// parameters plus the slot array they govern. The kernel publishes the
// active geometry through an atomic pointer; operations pin the pointer for
// their whole duration (Runtime.Begin), so a reconfiguration never changes
// the rules under a running search — in-flight operations finish on the
// geometry they started with.
//
// Geometries are linked by a monotonically increasing epoch. Width changes
// build a new slot slice that *shares* the surviving slots with the old
// geometry (slot pointers, not copies), which is what makes growth free of
// migration: items stay where they are and simply become visible to the
// wider geometry. Only a shrink strands items, in the dropped slots; those
// are handed off after the old epoch quiesces (see reconfigureLocked).
type Geometry[S any] struct {
	Epoch uint64
	Width int
	Depth int64
	Shift int64
	Hops  int
	Subs  []S

	// Placement (DESIGN.md §7): homes maps each slot to its socket
	// (len == width; all zeros while placement is off), nsockets is the
	// socket count the homes were computed for, and localProbe selects the
	// socket-aware search (false keeps the pre-placement hot path
	// unchanged). Handles derive their probe permutations from homes
	// lazily (Runtime.Probe), each with a private rotation of the remote
	// section, so same-socket handles don't convoy when they spill.
	homes      []int
	nsockets   int
	localProbe bool
}

// Config re-packages the geometry's parameters as a Config.
func (g *Geometry[S]) Config() Config {
	return Config{Width: g.Width, Depth: g.Depth, Shift: g.Shift, RandomHops: g.Hops}
}

// Hooks are the three structure-specific steps of a reconfiguration.
type Hooks[S any] struct {
	// NewSlot makes an empty slot for a geometry of the given depth, at
	// construction and on width growth.
	NewSlot func(depth int64) S
	// Raise lifts the window ceiling (or ceilings) to at least depth after
	// a new geometry is published.
	Raise func(depth int64)
	// Handoff moves the items of the slots a shrink dropped into the
	// surviving ones, after the old epoch has quiesced, and returns its
	// addition to ShrinkDisplacementBound.
	Handoff func(next *Geometry[S], dropped []S) int64
}

// Kernel is the window shared by the 2D-Stack and the 2D-Queue. It must be
// embedded, initialised once through Init, and never copied.
type Kernel[S, T any] struct {
	// geo is the active geometry, replaced wholesale by reconfiguration.
	// Padded away from the rest so the embedding structure's window
	// ceilings, and the registry, do not share its read-mostly line.
	geo atomic.Pointer[Geometry[S]]
	_   pad.CacheLinePad
	// seed feeds handle RNGs; purely to give each handle an independent
	// deterministic stream.
	seed  pad.Uint64Line
	hooks Hooks[S]

	// reMu serialises reconfigurations. It also guards the placement
	// settings below, which every geometry build reads, and the structural
	// observer (obsv), whose events are emitted only under it.
	reMu sync.Mutex
	// obsv receives structural transition events (reconfigurations, shrink
	// handoffs, placement re-homes); nil — the default — costs nothing.
	// See SetObserver and DESIGN.md §8.
	obsv Observer
	// placePolicy/placeSockets are the socket-placement model installed by
	// SetPlacement (nil policy / 1 socket = placement off, the default):
	// the policy homes new slots on width growth and picks shrink
	// survivors; the active geometry carries the resulting slot→socket
	// map. See DESIGN.md §7.
	placePolicy  PlacementPolicy
	placeSockets int
	// handleSeq counts registered handles; the creation-order heuristic
	// derives each handle's default socket hint from it (HeuristicSocket).
	handleSeq atomic.Int64
	// shrinkDisp accumulates the displacement bounds the shrink handoffs
	// report (see ShrinkDisplacementBound).
	shrinkDisp atomic.Int64

	// hMu guards the handle registry, which powers epoch quiescence
	// detection, StatsSnapshot and the buffered term of Len. Each entry
	// holds its handle weakly — so an abandoned handle (e.g. one dropped
	// from the convenience API's sync.Pool on a GC cycle) is collectable —
	// but the handle's published counters strongly: a collected handle's
	// final counters stay readable until a later registration prunes the
	// entry and folds them into retired. StatsSnapshot is therefore exact
	// with no dependence on GC-cleanup timing.
	hMu     sync.Mutex
	handles []handleEntry[S, T]
	// retired accumulates the last published counters of pruned handles,
	// so StatsSnapshot never loses completed work.
	retired OpStats
}

// handleEntry is one registry slot: the weak handle for liveness, epoch and
// buffer checks plus a strong reference to its atomic counter mirror, so
// pruning can fold every dead entry's counters into retired
// unconditionally.
type handleEntry[S, T any] struct {
	wp     weak.Pointer[Runtime[S, T]]
	shared *SharedCounters
}

// Init installs the structure's hooks and publishes the first geometry
// (epoch 1) for cfg, which the caller has validated. The embedding
// structure sets its window ceilings to cfg.Depth first: NewSlot may read
// them.
func (k *Kernel[S, T]) Init(cfg Config, hooks Hooks[S]) {
	k.hooks = hooks
	k.placeSockets = 1
	g := &Geometry[S]{
		Epoch: 1, Width: cfg.Width, Depth: cfg.Depth, Shift: cfg.Shift, Hops: cfg.RandomHops,
		Subs:  make([]S, cfg.Width),
		homes: make([]int, cfg.Width), nsockets: 1,
	}
	for i := range g.Subs {
		g.Subs[i] = hooks.NewSlot(cfg.Depth)
	}
	k.geo.Store(g)
}

// Geo returns the active geometry.
func (k *Kernel[S, T]) Geo() *Geometry[S] { return k.geo.Load() }

// Config returns the active configuration. Under live reconfiguration the
// value is the geometry current at the call, which a concurrent Reconfigure
// may immediately supersede.
func (k *Kernel[S, T]) Config() Config { return k.geo.Load().Config() }

// Width returns the current number of slots.
func (k *Kernel[S, T]) Width() int { return k.geo.Load().Width }

// Epoch returns the active geometry's epoch; it increases by one per
// successful reconfiguration. Diagnostics only.
func (k *Kernel[S, T]) Epoch() uint64 { return k.geo.Load().Epoch }

// ShrinkDisplacementBound returns the cumulative upper bound on the
// displacement attributable to width-shrink migrations, as reported by the
// structure's handoff (the stack's splice, the queue's drain). Zero while
// no shrink has migrated anything. Diagnostics — cmd/adapttune uses it to
// budget its realised-distance check.
func (k *Kernel[S, T]) ShrinkDisplacementBound() int64 { return k.shrinkDisp.Load() }

// SetObserver installs (or, with nil, removes) the structural observer.
// Emission sites all run under the reconfiguration lock, which SetObserver
// also takes, so installation is race-free against concurrent
// reconfigurations. The operation hot path never reads the observer —
// events exist only on reconfiguration paths — so an uninstrumented
// structure pays literally nothing and an instrumented one pays nothing per
// operation (DESIGN.md §8).
func (k *Kernel[S, T]) SetObserver(o Observer) {
	k.reMu.Lock()
	k.obsv = o
	k.reMu.Unlock()
}

// emitStruct reports a structural event for the transition from old to
// next to the installed observer, if any; reMu held.
func (k *Kernel[S, T]) emitStruct(kind StructEventKind, old, next *Geometry[S], ev StructEvent) {
	if k.obsv != nil {
		ev.Kind, ev.Epoch, ev.OldWidth = kind, next.Epoch, old.Width
		ev.Width, ev.Depth, ev.Shift = next.Width, next.Depth, next.Shift
		k.obsv.ObserveStruct(ev)
	}
}

// stampPlacement writes the slot-home map and the probe mode onto a
// geometry being built. Caller holds reMu, so placePolicy/placeSockets are
// stable.
func (k *Kernel[S, T]) stampPlacement(g *Geometry[S], homes []int) {
	g.homes = homes
	g.nsockets = k.placeSockets
	g.localProbe = k.placePolicy != nil && k.placePolicy.LocalProbeOrder() && k.placeSockets > 1
}

// SetPlacement installs the socket-placement model (DESIGN.md §7): policy
// decides the home socket of every slot — the current slots are re-homed
// immediately from scratch, and every future width growth places its new
// slots through the policy with the requesting socket's attribution (see
// ReconfigureOnSocket) — and sockets is the machine's socket count, clamped
// to [1, MaxPlacementSockets]. Under a local-probe policy (LocalFirst)
// operation searches visit slots homed on the handle's socket (Runtime.Pin,
// or the creation-order heuristic) before remote ones. Placement never
// changes the window validity rules — only slot homes and visit order — so
// the relaxation bound is unaffected. Pass sockets <= 1, or the RoundRobin
// policy, to restore the placement-blind behaviour. Re-homing swaps the
// geometry wholesale (no item moves), so SetPlacement is safe concurrently
// with operations, though handles created before it keep the heuristic
// socket computed for the old socket count until they are re-pinned.
func (k *Kernel[S, T]) SetPlacement(policy PlacementPolicy, sockets int) {
	k.reMu.Lock()
	defer k.reMu.Unlock()
	sockets = min(max(sockets, 1), MaxPlacementSockets)
	k.placePolicy, k.placeSockets = policy, sockets
	old := k.geo.Load()
	next := *old
	next.Epoch++
	k.stampPlacement(&next, PlaceSlots(policy, nil, old.Width, -1, sockets))
	k.geo.Store(&next)
	k.emitStruct(StructPlacement, old, &next, StructEvent{Requester: -1, Sockets: sockets})
}

// Placement returns a copy of the current slot→socket home map (all zeros
// while placement is off). Diagnostics, tests and cmd/adapttune reporting.
func (k *Kernel[S, T]) Placement() []int {
	return append([]int(nil), k.geo.Load().homes...)
}

// PlacementSocketFor returns the socket the creation-order heuristic
// assigns the i-th handle (HeuristicSocket over the configured socket
// count): the harness pins worker i's handle with it so the native
// structures see the same fill-socket-0-first layout the simulated machine
// uses.
func (k *Kernel[S, T]) PlacementSocketFor(i int) int {
	return HeuristicSocket(i, k.geo.Load().nsockets)
}

// Reconfigure atomically replaces the geometry with cfg. It is safe to call
// concurrently with operations (and with other Reconfigure calls, which
// serialise). Items are never lost or duplicated:
//
//   - Depth/shift/hops changes swap only the parameters; the slot array is
//     shared between the old and new geometry.
//   - Width growth appends fresh empty slots (Hooks.NewSlot, which joins
//     them at the window floor); existing slots are shared, so no item
//     moves.
//   - Width shrink drops the slots ShrinkPlan does not keep, waits for
//     every operation pinned to the old geometry to finish (epoch
//     quiescence), then hands the stranded items to the survivors
//     (Hooks.Handoff: the stack splices each stranded chain onto the
//     least-loaded survivor in one descriptor CAS, the queue drains the
//     dropped sub-queues round-robin into the least-loaded survivors).
//
// Semantics during a transition: operations still in flight on the old
// geometry follow its window rules, so for the duration of the handover the
// old and new bounds combine, plus (for a shrink) the handoff's
// displacement — the quantity tracked by ShrinkDisplacementBound. A shrink
// additionally makes the stranded items invisible to new-geometry
// operations until the handoff completes (Reconfigure returns only after it
// has): a concurrent Pop or Dequeue inside that window may report empty
// even though stranded items exist. Callers that treat empty as terminal —
// drain loops, shutdown paths — should therefore not shrink width
// concurrently with consumers racing the structure to empty. Once the
// handoff finishes the active geometry's bound applies again. See DESIGN.md
// §4 and §5.
//
// Reconfigure must not be called from inside an operation on the same
// structure (there is no way to do so through the public API).
func (k *Kernel[S, T]) Reconfigure(cfg Config) error {
	return k.ReconfigureOnSocket(cfg, -1)
}

// ReconfigureOnSocket is Reconfigure with placement attribution: requester
// is the socket whose contention asked for the change (-1 when unknown —
// plain Reconfigure). Width growth hands the requester to the placement
// policy, so LocalFirst fills the asking socket's slots first; width
// shrink prefers dropping slots remote to the requester (ShrinkSurvivors),
// keeping the surviving capacity on the pressured socket. With placement
// off (or no attribution) it behaves exactly like Reconfigure. This is the
// entry point internal/adapt's controller uses when the target advertises
// placement (adapt.SocketAware).
func (k *Kernel[S, T]) ReconfigureOnSocket(cfg Config, requester int) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	k.reMu.Lock()
	defer k.reMu.Unlock()
	return k.reconfigureLocked(cfg, requester)
}

// SetWindow adjusts depth and shift, keeping width and hops. This is the
// cheap reconfiguration path: no migration, no quiescence wait.
func (k *Kernel[S, T]) SetWindow(depth, shift int64) error {
	k.reMu.Lock()
	defer k.reMu.Unlock()
	cfg := k.geo.Load().Config()
	cfg.Depth, cfg.Shift = depth, shift
	return k.reconfigureLocked(cfg, -1)
}

// SetWidth adjusts the slot count, keeping the window parameters.
func (k *Kernel[S, T]) SetWidth(width int) error {
	k.reMu.Lock()
	defer k.reMu.Unlock()
	cfg := k.geo.Load().Config()
	cfg.Width = width
	return k.reconfigureLocked(cfg, -1)
}

func (k *Kernel[S, T]) reconfigureLocked(cfg Config, requester int) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	old := k.geo.Load()
	if old.Config() == cfg {
		return nil
	}
	next := &Geometry[S]{
		Epoch: old.Epoch + 1, Width: cfg.Width, Depth: cfg.Depth, Shift: cfg.Shift, Hops: cfg.RandomHops,
	}
	var dropped []S
	switch {
	case cfg.Width == old.Width:
		next.Subs = old.Subs
		k.stampPlacement(next, old.homes)
	case cfg.Width > old.Width:
		next.Subs = make([]S, cfg.Width)
		copy(next.Subs, old.Subs)
		for i := old.Width; i < cfg.Width; i++ {
			next.Subs[i] = k.hooks.NewSlot(cfg.Depth)
		}
		// New slots are homed by the placement policy, requester first
		// under LocalFirst (a no-op map of zeros while placement is off).
		k.stampPlacement(next, PlaceSlots(k.placePolicy, old.homes, cfg.Width, requester, k.placeSockets))
	default:
		// Shrink: keep the survivors ShrinkPlan picks (the leading slots
		// when placement-blind; preferring to drop slots remote to the
		// requester otherwise), strand the rest for the handoff.
		surv, homes := ShrinkPlan(k.placePolicy, old.homes, cfg.Width, requester)
		keep := make([]bool, old.Width)
		next.Subs = make([]S, 0, cfg.Width)
		for _, i := range surv {
			keep[i] = true
			next.Subs = append(next.Subs, old.Subs[i])
		}
		for i, sub := range old.Subs {
			if !keep[i] {
				dropped = append(dropped, sub)
			}
		}
		k.stampPlacement(next, homes)
	}
	// Director yield point: the instant before the new window rules become
	// visible to fresh pins — a suspended schedule here interleaves
	// old-geometry operations against the fully built successor.
	Yield(yield.PointGeometryPublish)
	k.geo.Store(next)
	k.hooks.Raise(cfg.Depth)

	// The reconfiguration event marks the publish point: it precedes any
	// handoff event of the same shrink, so a drained trace reads causally
	// (reconfig, then its migration, then the controller tick that reported
	// both).
	k.emitStruct(StructReconfig, old, next, StructEvent{Requester: requester, Stranded: len(dropped)})

	if len(dropped) > 0 {
		// Items in the dropped slots are invisible to the new geometry.
		// Wait until no operation can touch them through the old one, then
		// move them into the live window. After quiescence the slots are
		// exclusively ours (new-geometry searches never index past width).
		k.waitQuiesce(old.Epoch)
		disp := k.hooks.Handoff(next, dropped)
		k.shrinkDisp.Add(disp)
		k.emitStruct(StructShrinkHandoff, old, next, StructEvent{
			Requester: requester, Stranded: len(dropped), Displacement: disp,
		})
	}
	return nil
}

// waitQuiesce blocks until no handle is pinned to an epoch <= oldEpoch.
// Operations are lock-free and finite, so this terminates; new operations
// pin the already-published new geometry and do not delay it. A collected
// handle (weak pointer gone nil) is idle by definition: a goroutine still
// running an operation keeps its handle reachable.
func (k *Kernel[S, T]) waitQuiesce(oldEpoch uint64) {
	for {
		busy := false
		k.hMu.Lock()
		for _, entry := range k.handles {
			if r := entry.wp.Value(); r != nil {
				if e := r.epoch.Load(); e != 0 && e <= oldEpoch {
					busy = true
					break
				}
			}
		}
		k.hMu.Unlock()
		if !busy {
			return
		}
		// Director yield point: a directed reconfiguration parks here so
		// the scheduler can run the pinned operations to completion instead
		// of spinning the wait loop forever (yield.PointWait semantics).
		Yield(yield.PointWait)
		runtime.Gosched()
	}
}

// BufferedLen sums every live handle's op-buffer residents (pending
// publications and prefetched-but-undelivered values), the term each
// structure's Len adds to its slot populations so combined publication
// never makes items phantom-invisible to sizing. Each addend is an atomic
// snapshot; the sum is not.
func (k *Kernel[S, T]) BufferedLen() int {
	var n int64
	k.hMu.Lock()
	for _, e := range k.handles {
		if r := e.wp.Value(); r != nil {
			n += r.bufCount.Load()
		}
	}
	k.hMu.Unlock()
	return int(n)
}

// StatsSnapshot aggregates the published counters of every registered
// handle plus the retired totals of pruned ones. It is safe to call from
// any goroutine and does not perturb the operation hot path: handles
// publish their counters every statsFlushInterval operations, so the
// snapshot trails the truth by at most that many operations per active
// handle (and by the same amount, permanently, per abandoned handle).
// Because the registry holds each handle's counter mirror strongly, a
// collected-but-not-yet-pruned handle's work is still read here — the
// snapshot never transiently loses completed operations. Reconfiguration
// traffic does not read as client operations: both shrink handoffs move
// stranded items without a handle. This is the feed for internal/adapt's
// controller.
func (k *Kernel[S, T]) StatsSnapshot() OpStats {
	k.hMu.Lock()
	out := k.retired
	for _, e := range k.handles {
		out.Add(e.shared.Load())
	}
	k.hMu.Unlock()
	return out
}
