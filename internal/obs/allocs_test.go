package obs

import (
	"testing"
	"time"

	"stack2d/internal/adapt"
	"stack2d/internal/core"
)

// instrument attaches the full observability plane to s: a structural
// tracer, a Started controller with a tick tracer, and a registered
// metrics bridge over both. The returned function stops the controller.
func instrument(tb testing.TB, s *core.Stack[uint64], tick time.Duration) (stop func()) {
	tb.Helper()
	ring := NewRing(1024)
	s.SetObserver(StructTracer{Structure: "stack", Ring: ring})
	ctrl, err := adapt.New(s, adapt.Policy{Tick: tick})
	if err != nil {
		tb.Fatal(err)
	}
	ctrl.SetObserver(TickTracer{Structure: "stack", Ring: ring})
	reg := NewRegistry()
	RegisterStructure(reg, "stack", s, nil)
	RegisterRing(reg, ring)
	ctrl.Start()
	return ctrl.Stop
}

// TestInstrumentedOpAllocsUnchanged is the deterministic form of the
// disabled-path claim of DESIGN.md §8: no hook is read per operation, so a
// fully instrumented stack allocates per push and per pop exactly what the
// plain stack does. The controller's tick is far longer than the
// measurement, so the counts cover the operation path and not a tick
// (AllocsPerRun counts every goroutine's allocations).
func TestInstrumentedOpAllocsUnchanged(t *testing.T) {
	cfg := core.Config{Width: 16, Depth: 64, Shift: 64, RandomHops: 2}
	measure := func(s *core.Stack[uint64]) (push, pop float64) {
		h := s.NewHandle()
		var i uint64
		push = testing.AllocsPerRun(10000, func() { h.Push(i); i++ })
		pop = testing.AllocsPerRun(5000, func() { h.Pop() })
		return push, pop
	}
	plainPush, plainPop := measure(core.MustNew[uint64](cfg))

	s := core.MustNew[uint64](cfg)
	defer instrument(t, s, time.Hour)()
	push, pop := measure(s)
	if push != plainPush || pop != plainPop {
		t.Fatalf("instrumented stack allocates %v/%v per push/pop, plain stack %v/%v — a hook reached the op path",
			push, pop, plainPush, plainPop)
	}
}
