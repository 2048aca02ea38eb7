package relax

import (
	"sync"

	"stack2d/internal/core"
	"stack2d/internal/elimination"
	"stack2d/internal/eltree"
	"stack2d/internal/flatcombining"
	"stack2d/internal/ksegment"
	"stack2d/internal/msqueue"
	"stack2d/internal/multistack"
	"stack2d/internal/treiber"
)

// The backend contract: one control-plane surface over every structure in
// the catalogue. PRs 1–6 built the Reconfigurable/StatsSnapshot/checker
// machinery for the 2D structures only; Backend is the interface that
// lets the controller, the conformance harness and the observability
// plane see the whole zoo. engine.Switcher composes Backends into a
// hot-swappable structure, and internal/adapt's Selector picks among them
// by semantics budget and observed signals.

// Handle is the per-goroutine operation context of a Backend. Handles are
// not safe for concurrent use; the Backend is, across handles. Flush
// publishes the handle's pending counters to the backend's registry (the
// statsFlushInterval scheme of core): call it when a worker quiesces so a
// sampler sees final totals.
type Handle[T any] interface {
	Push(v T)
	Pop() (v T, ok bool)
	Flush()
}

// Backend is the uniform contract the relaxation zoo is adapted behind.
//
// KBound is the backend's semantics budget: the k-out-of-order bound its
// discipline guarantees (0 for the strict structures, the configured
// bound for the relaxed ones, the k-robin estimate for round-robin), or
// -1 when no deterministic bound exists (random policies, the
// elimination-diffraction pool). The budget is what the adapt layer
// compares against the caller's k ceiling and what folds into checker
// budgets across a swap.
//
// Backends whose geometry is tunable additionally implement
// adapt.Reconfigurable (the 2D backend does); callers discover that with
// a type assertion, exactly as adapt.Controller discovers SocketAware.
//
// Drain empties the backend and returns the items in pop order (for
// OrderLIFO: top-first). It is quiescent-only — engine.Switcher calls it
// after pinned operations have drained.
type Backend[T any] interface {
	Algorithm() Algorithm
	KBound() int64
	NewHandle() Handle[T]
	Len() int
	Drain() []T
	StatsSnapshot() core.OpStats
}

// backendFlushInterval mirrors core's statsFlushInterval: adapter handles
// publish their counters to the registry every this many operations, so
// snapshots trail the truth by at most that much per handle.
const backendFlushInterval = 64

// statsRegistry is the race-safe counter registry shared by the adapters,
// the same scheme core.Stack uses for its handles: each handle owns a
// plain OpStats (single-writer, no atomics) and periodically publishes it
// to a SharedCounters mirror; snapshots aggregate the mirrors.
type statsRegistry struct {
	mu      sync.Mutex
	entries []*core.SharedCounters
}

func (r *statsRegistry) register() *core.SharedCounters {
	c := &core.SharedCounters{}
	r.mu.Lock()
	r.entries = append(r.entries, c)
	r.mu.Unlock()
	return c
}

func (r *statsRegistry) snapshot() core.OpStats {
	var out core.OpStats
	r.mu.Lock()
	for _, e := range r.entries {
		out.Add(e.Load())
	}
	r.mu.Unlock()
	return out
}

// counted is the embeddable flush state of an adapter handle.
type counted struct {
	stats      core.OpStats
	shared     *core.SharedCounters
	sinceFlush int
}

func (c *counted) done() {
	c.sinceFlush++
	if c.sinceFlush >= backendFlushInterval {
		c.Flush()
	}
}

// Flush publishes the handle's counters to the backend's registry.
func (c *counted) Flush() {
	c.sinceFlush = 0
	c.shared.Store(c.stats)
}

// --- 2D-Stack ---------------------------------------------------------------

// twoDBackend adapts core.Stack. It passes adapt.Reconfigurable and
// SocketAware straight through, so the geometry controller steers it like
// it always has; StatsSnapshot uses the stack's own registry rather than
// a parallel one.
type twoDBackend[T any] struct{ s *core.Stack[T] }

// NewTwoDBackend wraps a 2D-Stack configuration as a Backend. The
// returned backend additionally implements adapt.Reconfigurable,
// adapt.SocketAware and ShrinkDisplacementBound() int64 (the migration
// allowance engine.Switcher folds into checker budgets).
func NewTwoDBackend[T any](cfg core.Config) (Backend[T], error) {
	s, err := core.New[T](cfg)
	if err != nil {
		return nil, err
	}
	return &twoDBackend[T]{s: s}, nil
}

func (b *twoDBackend[T]) Algorithm() Algorithm            { return TwoDStack }
func (b *twoDBackend[T]) KBound() int64                   { return b.s.Config().K() }
func (b *twoDBackend[T]) Len() int                        { return b.s.Len() }
func (b *twoDBackend[T]) Drain() []T                      { return b.s.Drain() }
func (b *twoDBackend[T]) StatsSnapshot() core.OpStats     { return b.s.StatsSnapshot() }
func (b *twoDBackend[T]) Config() core.Config             { return b.s.Config() }
func (b *twoDBackend[T]) Reconfigure(c core.Config) error { return b.s.Reconfigure(c) }
func (b *twoDBackend[T]) ReconfigureOnSocket(c core.Config, req int) error {
	return b.s.ReconfigureOnSocket(c, req)
}
func (b *twoDBackend[T]) ShrinkDisplacementBound() int64 { return b.s.ShrinkDisplacementBound() }

type twoDHandle[T any] struct{ h *core.Handle[T] }

func (b *twoDBackend[T]) NewHandle() Handle[T] { return twoDHandle[T]{h: b.s.NewHandle()} }

func (h twoDHandle[T]) Push(v T)            { h.h.Push(v) }
func (h twoDHandle[T]) Pop() (v T, ok bool) { return h.h.Pop() }
func (h twoDHandle[T]) Flush()              { h.h.FlushStats() }

// --- self-counting baselines (treiber, ms-queue) ----------------------------

// The strict list-based baselines count their own operation outcomes and
// CAS failures (treiber.PushStats/msqueue.EnqueueStats), so their adapter
// handles add only the registry flush.

type treiberBackend[T any] struct {
	s   *treiber.Stack[T]
	reg statsRegistry
}

// NewTreiberBackend wraps the strict Treiber baseline (k = 0).
func NewTreiberBackend[T any]() Backend[T] {
	return &treiberBackend[T]{s: treiber.New[T]()}
}

func (b *treiberBackend[T]) Algorithm() Algorithm        { return TreiberStack }
func (b *treiberBackend[T]) KBound() int64               { return 0 }
func (b *treiberBackend[T]) Len() int                    { return b.s.Len() }
func (b *treiberBackend[T]) Drain() []T                  { return b.s.Drain() }
func (b *treiberBackend[T]) StatsSnapshot() core.OpStats { return b.reg.snapshot() }
func (b *treiberBackend[T]) NewHandle() Handle[T] {
	h := &treiberHandle[T]{s: b.s}
	h.shared = b.reg.register()
	return h
}

type treiberHandle[T any] struct {
	counted
	s *treiber.Stack[T]
}

func (h *treiberHandle[T]) Push(v T) {
	h.s.PushStats(v, &h.stats)
	h.done()
}

func (h *treiberHandle[T]) Pop() (v T, ok bool) {
	v, ok = h.s.PopStats(&h.stats)
	h.done()
	return v, ok
}

type msqueueBackend[T any] struct {
	q   *msqueue.Queue[T]
	reg statsRegistry
}

// NewMSQueueBackend wraps the strict Michael–Scott baseline (k = 0,
// OrderFIFO: Push enqueues, Pop dequeues).
func NewMSQueueBackend[T any]() Backend[T] {
	return &msqueueBackend[T]{q: msqueue.New[T]()}
}

func (b *msqueueBackend[T]) Algorithm() Algorithm        { return MSQueue }
func (b *msqueueBackend[T]) KBound() int64               { return 0 }
func (b *msqueueBackend[T]) Len() int                    { return b.q.Len() }
func (b *msqueueBackend[T]) Drain() []T                  { return b.q.Drain() }
func (b *msqueueBackend[T]) StatsSnapshot() core.OpStats { return b.reg.snapshot() }
func (b *msqueueBackend[T]) NewHandle() Handle[T] {
	h := &msqueueHandle[T]{q: b.q}
	h.shared = b.reg.register()
	return h
}

type msqueueHandle[T any] struct {
	counted
	q *msqueue.Queue[T]
}

func (h *msqueueHandle[T]) Push(v T) {
	h.q.EnqueueStats(v, &h.stats)
	h.done()
}

func (h *msqueueHandle[T]) Pop() (v T, ok bool) {
	v, ok = h.q.DequeueStats(&h.stats)
	h.done()
	return v, ok
}

// --- handle-based zoo structures --------------------------------------------

// zooHandle is the operation surface shared by the handle-based zoo
// packages (elimination, ksegment, multistack, eltree, flatcombining).
type zooHandle[T any] interface {
	Push(v T)
	Pop() (v T, ok bool)
}

// zooBackend adapts any handle-based zoo structure: the inner handle is
// built with its SetStats pointed at the adapter's counters (so internal
// signals — probes, CAS failures — land there), and the adapter counts
// the operation outcomes itself. One type, five structures.
type zooBackend[T any] struct {
	alg    Algorithm
	k      int64
	reg    statsRegistry
	mkH    func(st *core.OpStats) zooHandle[T]
	lenF   func() int
	drainF func() []T
}

func (b *zooBackend[T]) Algorithm() Algorithm        { return b.alg }
func (b *zooBackend[T]) KBound() int64               { return b.k }
func (b *zooBackend[T]) Len() int                    { return b.lenF() }
func (b *zooBackend[T]) Drain() []T                  { return b.drainF() }
func (b *zooBackend[T]) StatsSnapshot() core.OpStats { return b.reg.snapshot() }
func (b *zooBackend[T]) NewHandle() Handle[T] {
	h := &zooCountedHandle[T]{}
	h.shared = b.reg.register()
	h.inner = b.mkH(&h.stats)
	return h
}

type zooCountedHandle[T any] struct {
	counted
	inner zooHandle[T]
}

func (h *zooCountedHandle[T]) Push(v T) {
	h.inner.Push(v)
	h.stats.Pushes++
	h.done()
}

func (h *zooCountedHandle[T]) Pop() (v T, ok bool) {
	v, ok = h.inner.Pop()
	if ok {
		h.stats.Pops++
	} else {
		h.stats.EmptyPops++
	}
	h.done()
	return v, ok
}

// NewEliminationBackend wraps the elimination back-off stack (strict
// LIFO, k = 0).
func NewEliminationBackend[T any](cfg elimination.Config) (Backend[T], error) {
	s, err := elimination.New[T](cfg)
	if err != nil {
		return nil, err
	}
	return &zooBackend[T]{
		alg: EliminationStack, k: 0,
		mkH: func(st *core.OpStats) zooHandle[T] {
			h := s.NewHandle()
			h.SetStats(st)
			return h
		},
		lenF: s.Len, drainF: s.Drain,
	}, nil
}

// NewKSegmentBackend wraps a k-segment configuration (k = SegmentSize−1).
func NewKSegmentBackend[T any](cfg ksegment.Config) (Backend[T], error) {
	s, err := ksegment.New[T](cfg)
	if err != nil {
		return nil, err
	}
	return &zooBackend[T]{
		alg: KSegment, k: cfg.K(),
		mkH: func(st *core.OpStats) zooHandle[T] {
			h := s.NewHandle()
			h.SetStats(st)
			return h
		},
		lenF: s.Len, drainF: s.Drain,
	}, nil
}

// NewMultiBackend wraps a distributed multi-stack. The algorithm and
// bound follow the policy: RoundRobin is k-robin with the KRobinBound
// estimate at p threads; the random policies are unbounded (KBound -1).
func NewMultiBackend[T any](cfg multistack.Config, p int) (Backend[T], error) {
	s, err := multistack.New[T](cfg)
	if err != nil {
		return nil, err
	}
	alg, k := RandomStack, int64(-1)
	switch cfg.Policy {
	case multistack.RoundRobin:
		alg, k = KRobin, KRobinBound(cfg.Width, p)
	case multistack.RandomC2:
		alg = RandomC2Stack
	}
	return &zooBackend[T]{
		alg: alg, k: k,
		mkH: func(st *core.OpStats) zooHandle[T] {
			h := s.NewHandle()
			h.SetStats(st)
			return h
		},
		lenF: s.Len, drainF: s.Drain,
	}, nil
}

// NewElTreeBackend wraps the elimination-diffraction tree pool (no
// deterministic bound: KBound -1).
func NewElTreeBackend[T any](cfg eltree.Config) (Backend[T], error) {
	p, err := eltree.New[T](cfg)
	if err != nil {
		return nil, err
	}
	return &zooBackend[T]{
		alg: ElTreePool, k: -1,
		mkH: func(st *core.OpStats) zooHandle[T] {
			h := p.NewHandle()
			h.SetStats(st)
			return h
		},
		lenF: p.Len, drainF: p.Drain,
	}, nil
}

// NewFlatCombiningBackend wraps the flat-combining stack (strict LIFO,
// k = 0).
func NewFlatCombiningBackend[T any]() Backend[T] {
	s := flatcombining.New[T]()
	return &zooBackend[T]{
		alg: FlatCombiningStack, k: 0,
		mkH: func(st *core.OpStats) zooHandle[T] {
			h := s.NewHandle()
			h.SetStats(st)
			return h
		},
		lenF: s.Len, drainF: s.Drain,
	}
}

// Figure2K is the relaxation budget of the k-bounded designs in the
// paper's concurrency sweep (EXPERIMENTS.md); harness.Figure2Factory and
// NewDefaultBackend both configure k-robin from it.
const Figure2K = 1024

// NewDefaultBackend builds the algorithm's default configuration for p
// expected threads. The catalogue audit and the benchmark series use it;
// pass a target k through the specific constructors when the default is
// not what you want. What it builds:
//
//   - 2D-stack: core.DefaultConfig(p), as in harness.Figure2Factory;
//   - k-robin: KRobinConfigForK(Figure2K, p), as in harness.Figure2Factory;
//   - k-segment: KSegmentConfigForK(Figure2K), segments of 1025 items
//     (harness.Figure2Factory uses 64);
//   - random and random-c2: width 4p (harness.Figure2Factory uses 64);
//   - elimination and eltree: their DefaultConfig(p);
//   - treiber, flat-combining and ms-queue: their only configuration.
func NewDefaultBackend[T any](a Algorithm, p int) (Backend[T], error) {
	if p < 1 {
		p = 1
	}
	switch a {
	case TwoDStack:
		return NewTwoDBackend[T](core.DefaultConfig(p))
	case KSegment:
		return NewKSegmentBackend[T](KSegmentConfigForK(int64(Figure2K)))
	case KRobin:
		return NewMultiBackend[T](KRobinConfigForK(Figure2K, p), p)
	case RandomStack:
		return NewMultiBackend[T](multistack.Config{Width: 4 * p, Policy: multistack.Random}, p)
	case RandomC2Stack:
		return NewMultiBackend[T](multistack.Config{Width: 4 * p, Policy: multistack.RandomC2}, p)
	case EliminationStack:
		return NewEliminationBackend[T](elimination.DefaultConfig(p))
	case TreiberStack:
		return NewTreiberBackend[T](), nil
	case ElTreePool:
		return NewElTreeBackend[T](eltree.DefaultConfig(p))
	case FlatCombiningStack:
		return NewFlatCombiningBackend[T](), nil
	case MSQueue:
		return NewMSQueueBackend[T](), nil
	default:
		return nil, errUnknownAlgorithm(a)
	}
}

func errUnknownAlgorithm(a Algorithm) error {
	return &unknownAlgorithmError{a}
}

type unknownAlgorithmError struct{ a Algorithm }

func (e *unknownAlgorithmError) Error() string {
	return "relax: no backend for algorithm " + e.a.String()
}
