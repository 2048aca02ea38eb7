// Package relax centralises the relaxation-semantics algebra of the
// reproduction: the k-out-of-order bounds of each algorithm, the mapping
// from a target relaxation level k to concrete per-algorithm configurations
// (the x-axis of the paper's Figure 1), and trace checking against those
// bounds.
//
// # Semantics
//
// A stack is k-out-of-order relaxed (Henzinger et al., POPL'13) when every
// Pop returns one of the k+1 topmost items of some linearization, and may
// report empty only when at most k items are present. k = 0 is the strict
// sequential stack.
//
// # Per-algorithm bounds
//
//   - 2D-Stack: k = (2·depth + shift)·(width − 1)   (Theorem 1, constant
//     corrected per DESIGN.md §2; equal to the paper's transcription at
//     shift = depth, which every configuration derived here uses)
//   - k-segment: k = s − 1 for segment size s (sequential bound; all items
//     of the top segment are interchangeable, and items below the top
//     segment are strictly older).
//   - k-robin: a handle distributes consecutive operations round-robin over
//     w sub-stacks, so an item can sink at most w−1 positions per
//     traversal in each direction; with P concurrent handles the paper
//     keeps the bound by shrinking w as P grows. We use the estimate
//     k ≈ 2·P·(w−1) and invert it for configuration.
//   - random / random-c2: no deterministic bound (a sufficiently unlucky
//     schedule displaces an item arbitrarily far); they appear only in the
//     concurrency sweep (Figure 2), as in the paper.
package relax

import (
	"fmt"
	"strings"

	"stack2d/internal/core"
	"stack2d/internal/ksegment"
	"stack2d/internal/multistack"
)

// Algorithm enumerates every stack design in the evaluation.
type Algorithm int

// The algorithms of the paper's Figures 1 and 2, by their paper names,
// followed by the related-work structures the repository carries beyond
// the figures (elimination-diffraction tree, flat combining, the
// Michael–Scott queue baseline). New entries append — the numeric values
// are stable.
const (
	TwoDStack Algorithm = iota
	KSegment
	KRobin
	RandomStack
	RandomC2Stack
	EliminationStack
	TreiberStack
	ElTreePool
	FlatCombiningStack
	MSQueue
)

func (a Algorithm) String() string {
	switch a {
	case TwoDStack:
		return "2D-stack"
	case KSegment:
		return "k-segment"
	case KRobin:
		return "k-robin"
	case RandomStack:
		return "random"
	case RandomC2Stack:
		return "random-c2"
	case EliminationStack:
		return "elimination"
	case TreiberStack:
		return "treiber"
	case ElTreePool:
		return "eltree"
	case FlatCombiningStack:
		return "flat-combining"
	case MSQueue:
		return "ms-queue"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm inverts String (the round trip is pinned by
// TestCatalogueAudit). It ignores letter case and also takes the short
// spellings the CLIs accept: "2d", "2dstack", "ksegment", "krobin", "c2".
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s = strings.ToLower(s); s {
	case "2d", "2dstack":
		return TwoDStack, nil
	case "ksegment":
		return KSegment, nil
	case "krobin":
		return KRobin, nil
	case "c2":
		return RandomC2Stack, nil
	}
	for _, a := range AllAlgorithms() {
		if strings.ToLower(a.String()) == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("relax: unknown algorithm %q", s)
}

// AllAlgorithms returns the complete catalogue in declaration order.
func AllAlgorithms() []Algorithm {
	return []Algorithm{
		TwoDStack, KSegment, KRobin, RandomStack, RandomC2Stack,
		EliminationStack, TreiberStack, ElTreePool, FlatCombiningStack,
		MSQueue,
	}
}

// KBounded reports whether the algorithm has a deterministic k-out-of-order
// bound. The strict structures (treiber, elimination, flat-combining,
// ms-queue) are bounded with k = 0; the random policies and the
// elimination-diffraction pool have no deterministic bound.
func (a Algorithm) KBounded() bool {
	switch a {
	case TwoDStack, KSegment, KRobin, TreiberStack,
		EliminationStack, FlatCombiningStack, MSQueue:
		return true
	default:
		return false
	}
}

// Ordering is the sequential discipline an algorithm relaxes: most of the
// catalogue is stack-shaped (k-out-of-order against LIFO), the
// Michael–Scott baseline is queue-shaped, and the elimination-diffraction
// tree and the random policies promise no deterministic order at all.
// engine.Switcher only swaps between backends of the same ordering — a
// swap must preserve which checker (seqspec.KStackChecker vs KFIFOChecker)
// the run's history is replayed through.
type Ordering int

// The orderings; OrderNone marks pool semantics (no deterministic bound).
const (
	OrderLIFO Ordering = iota
	OrderFIFO
	OrderNone
)

func (o Ordering) String() string {
	switch o {
	case OrderLIFO:
		return "lifo"
	case OrderFIFO:
		return "fifo"
	case OrderNone:
		return "none"
	default:
		return fmt.Sprintf("Ordering(%d)", int(o))
	}
}

// Ordering returns the algorithm's sequential discipline. The random
// multistack policies are OrderNone for the same reason KBounded is false
// for them: an adversarial schedule displaces items arbitrarily far.
func (a Algorithm) Ordering() Ordering {
	switch a {
	case MSQueue:
		return OrderFIFO
	case RandomStack, RandomC2Stack, ElTreePool:
		return OrderNone
	default:
		return OrderLIFO
	}
}

// Figure1Algorithms returns the k-bounded relaxed designs compared in
// Figure 1, in the paper's order.
func Figure1Algorithms() []Algorithm {
	return []Algorithm{TwoDStack, KRobin, KSegment}
}

// KConfigurable reports whether the algorithm's structure can be derived
// from a target relaxation budget k (the x-axis of Figure 1): these are
// the algorithms harness.Figure1Factory accepts. The strict baselines are
// k-bounded (k = 0) but not configurable — there is no knob to derive.
func (a Algorithm) KConfigurable() bool {
	switch a {
	case TwoDStack, KSegment, KRobin:
		return true
	default:
		return false
	}
}

// Figure2Algorithms returns all designs compared in Figure 2.
func Figure2Algorithms() []Algorithm {
	return []Algorithm{
		TwoDStack, KRobin, KSegment, RandomStack, RandomC2Stack,
		EliminationStack, TreiberStack,
	}
}

// TwoDConfigForK maps a target relaxation k and thread count p to a 2D-Stack
// configuration following the paper's tuning narrative: grow width
// (horizontal, disjoint access) until the optimum width 4P, then grow depth
// (vertical, locality) with shift = depth. The returned configuration's
// exact bound Config.K() is <= k (never exceeds the budget) and > 0 for
// k >= 3.
func TwoDConfigForK(k int64, p int) core.Config {
	if p < 1 {
		p = 1
	}
	if k < 3 {
		// No relaxation budget: a strict (width 1) stack.
		return core.Config{Width: 1, Depth: 64, Shift: 64, RandomHops: 2}
	}
	maxWidth := 4 * p
	// Horizontal phase: depth = shift = 1 gives k = 3(w-1).
	w := int(k/3) + 1
	if w <= maxWidth {
		return core.Config{Width: w, Depth: 1, Shift: 1, RandomHops: 2}
	}
	// Vertical phase: width pinned at 4P, k = 3d(w-1) with shift = depth.
	d := k / (3 * int64(maxWidth-1))
	if d < 1 {
		d = 1
	}
	return core.Config{Width: maxWidth, Depth: d, Shift: d, RandomHops: 2}
}

// KSegmentConfigForK maps a target k to a segment size (s = k+1).
func KSegmentConfigForK(k int64) ksegment.Config {
	if k < 0 {
		k = 0
	}
	return ksegment.Config{SegmentSize: int(k) + 1}
}

// KRobinConfigForK maps a target k and thread count p to a round-robin
// width via the estimate k = 2·P·(w−1); the paper notes k-robin shrinks its
// width as P grows to hold the bound.
func KRobinConfigForK(k int64, p int) multistack.Config {
	if p < 1 {
		p = 1
	}
	w := int(k/(2*int64(p))) + 1
	if w < 1 {
		w = 1
	}
	return multistack.Config{Width: w, Policy: multistack.RoundRobin}
}

// KRobinBound is the k estimate for a k-robin configuration at p threads
// (the inverse of KRobinConfigForK).
//
// This is a central estimate, not a guarantee: round-robin scheduling has
// no tight deterministic bound, because a Pop that lands on a drained
// sub-stack sweeps forward to the next non-empty one, desynchronising the
// push and pop cursors. Differential fuzzing (cmd/stackfuzz) observes
// single-threaded distances up to ≈4.5·(width−1) on adversarial scripts —
// still Θ(width), so the estimate is the right shape for configuring the
// Figure 1 sweep, but only the 2D-Stack's window mechanism turns the shape
// into the hard bound of Theorem 1. That contrast is one of the paper's
// selling points.
func KRobinBound(width, p int) int64 {
	if p < 1 {
		p = 1
	}
	return 2 * int64(p) * int64(width-1)
}
