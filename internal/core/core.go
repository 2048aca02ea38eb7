// Package core implements the 2D-Stack of Rukundo, Atalar and Tsigas
// (PODC'18): a lock-free stack that relaxes LIFO semantics within a tunable
// two-dimensional window to gain throughput.
//
// # Structure
//
// The stack is an array of `width` Treiber-style sub-stacks, each described
// by an immutable {top, count} descriptor replaced atomically on every
// successful operation. The descriptor embeds its top cell and links to a
// lower state of the same list, so a push allocates one descriptor and a
// pop usually CASes back to the state the matching push replaced,
// allocating nothing (DESIGN.md §3). A shared Global counter together with
// the `depth` parameter defines the *window*: a sub-stack is a valid
// target for
//
//   - Push when count < Global
//   - Pop  when count > Global − depth
//
// When no sub-stack is valid the window itself is moved: Push raises Global
// by `shift`, Pop lowers it (never below depth). All items therefore live
// within a band of height `depth` across the sub-stacks, which yields the
// Theorem 1 bound: the stack is linearizable with respect to k-out-of-order
// stack semantics with
//
//	k = (2·depth + shift) · (width − 1)
//
// (The paper's transcription weighs shift double instead of depth; that
// form is violated for shift < depth — a count-lagging sub-stack's
// stale top stays poppable across several slow window raises — and the two
// coincide at shift = depth. The constant above is the corrected one,
// certified for small geometries by internal/seqspec's exhaustive explorer;
// see DESIGN.md §2 for the resolution.)
//
// # Operation scheduling
//
// Each operation starts from the sub-stack where the calling handle last
// succeeded (locality — the vertical dimension), tries a configurable number
// of random hops, then falls back to round-robin probing. A failed CAS
// (contention) triggers a random hop instead of a retry on the same
// sub-stack. Any observed change of Global restarts the search, keeping the
// window tight.
//
// # Handles
//
// The algorithm keeps per-thread state (last successful sub-stack, RNG).
// Go has no cheap goroutine-local storage, so that state lives in an
// explicit Handle; each goroutine should own one. Handle operations are not
// safe for concurrent use of the *same* handle; the Stack itself is fully
// concurrent across handles.
//
// # Live reconfiguration
//
// The window geometry is not fixed at construction: Reconfigure (and the
// SetWindow/SetWidth shorthands) swap in a new geometry while operations
// are running. Every operation pins the active geometry for its duration
// via a per-handle epoch, so a width shrink can wait for the old epoch to
// quiesce before migrating the items stranded in dropped sub-stacks; depth,
// shift and width-growth changes are wait-free parameter swaps. This is the
// mechanism behind internal/adapt's feedback controller, which retunes the
// window continuously from the handles' contention counters. See DESIGN.md
// §4 for the invariants.
package core

import (
	"fmt"

	"stack2d/internal/pad"
)

// Config carries the tuning parameters of a 2D-Stack. The zero value is not
// valid; use DefaultConfig or fill all fields and call Validate.
type Config struct {
	// Width is the number of sub-stacks (the horizontal, disjoint-access
	// dimension). The paper's evaluation selects width = 4P for P threads.
	Width int
	// Depth is the window height: the maximum spread of items a single
	// sub-stack may hold relative to the window floor (the vertical,
	// locality dimension).
	Depth int64
	// Shift is how far Global moves when a whole window is exhausted.
	// Must satisfy 1 <= Shift <= Depth. The paper uses shift = depth for
	// maximum locality; smaller shifts tighten relaxation at the cost of
	// more frequent Global updates.
	Shift int64
	// RandomHops is the number of random probes an operation makes before
	// switching to round-robin search. The paper prescribes "a given
	// number of random hops, then round robin".
	RandomHops int
}

// DefaultConfig returns the configuration the paper identifies as the
// high-throughput operating point for p expected threads: width 4p,
// depth = shift = 64, two random hops.
func DefaultConfig(p int) Config {
	if p < 1 {
		p = 1
	}
	return Config{Width: 4 * p, Depth: 64, Shift: 64, RandomHops: 2}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Width < 1:
		return fmt.Errorf("core: Width must be >= 1, got %d", c.Width)
	case c.Depth < 1:
		return fmt.Errorf("core: Depth must be >= 1, got %d", c.Depth)
	case c.Shift < 1 || c.Shift > c.Depth:
		return fmt.Errorf("core: Shift must be in [1, Depth=%d], got %d", c.Depth, c.Shift)
	case c.RandomHops < 0:
		return fmt.Errorf("core: RandomHops must be >= 0, got %d", c.RandomHops)
	}
	return nil
}

// K returns the Theorem 1 relaxation bound for this configuration:
// k = (2·depth + shift)(width − 1). A width-1 stack is strict (k = 0).
// The constant is exact for every legal shift: sequential executions
// realise distances at most k (certified exhaustively for small geometries
// by seqspec.ExploreStack, property-tested for larger ones), and
// concurrent executions add at most one position of measurement slack per
// in-flight operation. It corrects the paper's transcription (shift
// weighted double instead of depth), which sequential counterexamples
// refute for shift < depth and which coincides with K at shift = depth —
// see DESIGN.md §2 for the resolution.
func (c Config) K() int64 {
	return (2*c.Depth + c.Shift) * int64(c.Width-1)
}

// Stack is a lock-free 2D-Stack: the window kernel over descriptor-CAS
// sub-stacks. Create with New; use per-goroutine Handles for operations. A
// Stack must not be copied.
type Stack[T any] struct {
	Kernel[*subStack[T], T]
	// global is the paper's Global counter: the per-sub-stack item ceiling
	// of the current window. Steady-state invariant: global >= depth, so
	// the window floor (global - depth) is non-negative; reconfiguration
	// can break it transiently, which operations tolerate by clamping the
	// floor at zero.
	global pad.Int64Line
}

// New returns an empty 2D-Stack with the given configuration.
func New[T any](cfg Config) (*Stack[T], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Stack[T]{}
	s.global.V.Store(cfg.Depth)
	s.Init(cfg, Hooks[*subStack[T]]{NewSlot: s.newSubStack, Raise: s.raiseGlobal, Handoff: s.spliceStranded})
	return s, nil
}

// MustNew is New for configurations known valid at compile time; it panics
// on error. Used by tests and examples.
func MustNew[T any](cfg Config) *Stack[T] {
	s, err := New[T](cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Global exposes the current window ceiling; diagnostics only.
func (s *Stack[T]) Global() int64 { return s.global.V.Load() }

// Len returns the total number of items the stack is responsible for: the
// residents of every sub-stack plus, for handles with an armed op buffer
// (SetOpBuffer), their pending-but-unpublished pushes and prefetched-but-
// undelivered pops — so combined publication never makes items phantom-
// invisible to sizing. It is exact when quiescent and approximate under
// concurrency (each addend is an atomic snapshot, but the sum is not).
func (s *Stack[T]) Len() int {
	var n int64
	for _, ss := range s.geo.Load().Subs {
		n += ss.load().count
	}
	return int(n) + s.BufferedLen()
}

// Empty reports whether every sub-stack was observed empty. Like Len, the
// answer is exact only in quiescent states.
func (s *Stack[T]) Empty() bool {
	g := s.geo.Load()
	for i := range g.Subs {
		if g.Subs[i].load().count != 0 {
			return false
		}
	}
	return true
}

// SubCounts returns a snapshot of each sub-stack's item count, used by
// diagnostics, tests and the relaxtune CLI.
func (s *Stack[T]) SubCounts() []int64 {
	g := s.geo.Load()
	out := make([]int64, len(g.Subs))
	for i := range g.Subs {
		out[i] = g.Subs[i].load().count
	}
	return out
}

// Drain removes all items (via a private handle) and returns them; intended
// for teardown and tests, not for concurrent use. Handles with an armed op
// buffer must FlushOps (and deliver or disarm their prefetch) before the
// drain — only the owning goroutine may touch a handle's private buffers,
// so Drain cannot reach values still held in them.
func (s *Stack[T]) Drain() []T {
	h := s.NewHandle()
	var out []T
	for {
		v, ok := h.Pop()
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

// CheckInvariants walks every sub-stack and verifies the structural
// invariants that the descriptor scheme maintains: each descriptor's count
// equals the actual length of its list, counts are non-negative, counts
// strictly fall along the prev chain, each prev's top cell is the very
// list cell at depth count − prev.count (DESIGN.md §3), and Global is
// positive (in quiescent states with no reconfiguration in flight it
// additionally satisfies Global >= Depth, but a pop racing a depth change
// may legitimately leave it between 1 and the new depth). It is intended
// for quiescent states (tests, debugging); under concurrency a descriptor
// read is atomic but the whole walk is not.
func (s *Stack[T]) CheckInvariants() error {
	if g := s.global.V.Load(); g < 1 {
		return fmt.Errorf("core: Global %d must be positive", g)
	}
	geo := s.geo.Load()
	if len(geo.Subs) != geo.Width {
		return fmt.Errorf("core: geometry width %d but %d sub-stacks", geo.Width, len(geo.Subs))
	}
	for i := range geo.Subs {
		d := geo.Subs[i].load()
		if d.count < 0 {
			return fmt.Errorf("core: sub-stack %d has negative count %d", i, d.count)
		}
		var n int64
		for c := d.head(); c != nil; c = c.next {
			n++
			if n > d.count {
				break
			}
		}
		if n != d.count {
			return fmt.Errorf("core: sub-stack %d descriptor count %d but list length >= %d", i, d.count, n)
		}
		// The list has exactly d.count cells, so the walk below stays on it.
		cell, depth := d.head(), int64(0)
		for last, p := d.count, d.prev; p != nil; last, p = p.count, p.prev {
			if p.count >= last || p.count < 0 {
				return fmt.Errorf("core: sub-stack %d prev chain count %d under count %d", i, p.count, last)
			}
			for ; depth < d.count-p.count; depth++ {
				cell = cell.next
			}
			if p.head() != cell {
				return fmt.Errorf("core: sub-stack %d prev state of count %d is not the list at depth %d", i, p.count, depth)
			}
		}
	}
	return nil
}
