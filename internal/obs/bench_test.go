package obs

import (
	"testing"
	"time"

	"stack2d/internal/core"
)

// benchMixedOps drives a 50/50 push/pop mix from every benchmark worker,
// each with its own handle — the high-contention shape of the harness's
// "high" phase.
func benchMixedOps(b *testing.B, s *core.Stack[uint64]) {
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		h := s.NewHandle()
		var i uint64
		for pb.Next() {
			if i&1 == 0 {
				h.Push(i)
			} else {
				h.Pop()
			}
			i++
		}
	})
}

// BenchmarkObserverOverhead times the disabled-path claim of DESIGN.md §8:
// fully instrumenting a structure (structural observer + live controller
// with a tick tracer + a registered metrics bridge) must not change the
// operation hot path, because no hook is read per operation. Compare the
// off/on ns/op in one run; TestInstrumentedOpAllocsUnchanged pins the
// allocation counts of the same instrumentation exactly.
func BenchmarkObserverOverhead(b *testing.B) {
	cfg := core.Config{Width: 16, Depth: 64, Shift: 64, RandomHops: 2}
	b.Run("off", func(b *testing.B) {
		benchMixedOps(b, core.MustNew[uint64](cfg))
	})
	b.Run("on", func(b *testing.B) {
		s := core.MustNew[uint64](cfg)
		defer instrument(b, s, 10*time.Millisecond)()
		benchMixedOps(b, s)
	})
}
