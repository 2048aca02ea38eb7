package relax

import (
	"fmt"
	"testing"
)

// TestBackendOpAllocsPinned pins the steady-state allocation cost of one
// push and one pop through the default backends the engine switcher serves
// traffic through, counting layer included (its every-64-ops flush crosses
// many strides inside AllocsPerRun). The relaxed 2D default pays the core
// stack's one descriptor (its embedded top cell is the pushed node) on push
// and nothing on pop, exactly like the strict elimination and Treiber
// backends, which pay only the pushed node. Allocation
// counts do not depend on the host, so the A/B between a relaxed and a
// strict backend is pinned here exactly, at both ends of the thread range.
func TestBackendOpAllocsPinned(t *testing.T) {
	cases := []struct {
		a         Algorithm
		push, pop float64
	}{
		{TwoDStack, 1, 0},
		{EliminationStack, 1, 0},
		{TreiberStack, 1, 0},
	}
	for _, p := range []int{1, 16} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s-p%d", c.a, p), func(t *testing.T) {
				b, err := NewDefaultBackend[uint64](c.a, p)
				if err != nil {
					t.Fatal(err)
				}
				h := b.NewHandle()
				var i uint64
				if got := testing.AllocsPerRun(2000, func() { h.Push(i); i++ }); got != c.push {
					t.Errorf("Push allocates %v per op, pinned at %v", got, c.push)
				}
				if got := testing.AllocsPerRun(1000, func() { h.Pop() }); got != c.pop {
					t.Errorf("Pop allocates %v per op, pinned at %v", got, c.pop)
				}
			})
		}
	}
}
