package core

import (
	"slices"
	"testing"
)

// TestPopPutsBackDescriptor pins the allocation-free pop and its ABA
// argument (DESIGN.md §3). A handle loads descriptor D; a second handle
// pushes and pops, which must put back the very pointer D; the first
// handle's delayed CAS against D then succeeds, and because D still denotes
// the state it validated, the stack it leaves is consistent.
func TestPopPutsBackDescriptor(t *testing.T) {
	check := func(t *testing.T, s *Stack[uint64], want []uint64) {
		t.Helper()
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if got := s.Drain(); !slices.Equal(got, want) {
			t.Fatalf("drain = %v, want %v", got, want)
		}
	}
	setup := func() (*Stack[uint64], *Handle[uint64], *subStack[uint64]) {
		s := MustNew[uint64](Config{Width: 1, Depth: 64, Shift: 64})
		h := s.NewHandle()
		for i := uint64(1); i <= 3; i++ {
			h.Push(i)
		}
		return s, s.NewHandle(), s.geo.Load().Subs[0]
	}

	t.Run("pop", func(t *testing.T) {
		s, h, ss := setup()
		d := ss.load()
		h.Push(9)
		if v, _ := h.Pop(); v != 9 || ss.load() != d {
			t.Fatalf("push+pop put back %p (popped %d), want D = %p", ss.load(), v, d)
		}
		if !ss.cas(d, d.below(1, d.top.next)) {
			t.Fatal("CAS against the put-back D failed")
		}
		check(t, s, []uint64{2, 1})
	})
	t.Run("push", func(t *testing.T) {
		s, h, ss := setup()
		d := ss.load()
		h.PushBatch([]uint64{7, 8, 9})
		if got := h.PopBatch(3); !slices.Equal(got, []uint64{9, 8, 7}) || ss.load() != d {
			t.Fatalf("batch push+pop put back %p (popped %v), want D = %p", ss.load(), got, d)
		}
		if !ss.cas(d, &descriptor[uint64]{top: node[uint64]{value: 4, next: d.head()}, count: d.count + 1, prev: d}) {
			t.Fatal("CAS against the put-back D failed")
		}
		check(t, s, []uint64{4, 3, 2, 1})
	})
	// A pop one cell under a batch's top has no existing state to return
	// to (the batch's prev sits m cells down): it must allocate the
	// in-between state, not jump to prev.
	t.Run("no-skip", func(t *testing.T) {
		s, h, ss := setup()
		d := ss.load()
		h.PushBatch([]uint64{7, 8, 9})
		if v, _ := h.Pop(); v != 9 {
			t.Fatalf("pop = %d, want 9", v)
		}
		if got := ss.load(); got == d || got.count != d.count+2 {
			t.Fatalf("pop under a batch top left count %d, want %d", got.count, d.count+2)
		}
		check(t, s, []uint64{8, 7, 3, 2, 1})
	})
}

// FuzzSequentialOps drives one handle through the whole operation
// alphabet — Push, Pop, TryPop, PushBatch, PopBatch, width shrink and
// width growth — against a multiset model, checking the structural
// invariants (descriptor counts and prev chains) and the exact length
// after every step and the exact contents at the final drain. Pops
// through reused prev states and shrink splices are where a wrong
// descriptor state would lose or duplicate items. Explore with
// `go test -fuzz=FuzzSequentialOps ./internal/core`.
func FuzzSequentialOps(f *testing.F) {
	f.Add(uint8(0), uint8(3), []byte{0x00, 0x02, 0x01, 0x02, 0x03})
	f.Add(uint8(3), uint8(7), []byte{0x24, 0x02, 0x02, 0x15, 0x06, 0x00, 0x1d})
	f.Add(uint8(5), uint8(1), []byte{0x3c, 0x3c, 0x3c, 0x0e, 0x0e, 0x35, 0x07, 0x02, 0x2d})
	f.Add(uint8(7), uint8(0), []byte{0x3c, 0x00, 0x00, 0x06, 0x06, 0x06, 0x1f, 0x03, 0x2d, 0x2d})
	f.Fuzz(func(t *testing.T, widthRaw, depthRaw uint8, script []byte) {
		width := int(widthRaw%8) + 1
		depth := int64(depthRaw%8) + 1
		s := MustNew[uint64](Config{Width: width, Depth: depth, Shift: depth, RandomHops: 1})
		h := s.NewHandle()
		model := map[uint64]bool{}
		next := uint64(1)
		popped := func(v uint64) {
			t.Helper()
			if !model[v] {
				t.Fatalf("popped %d, which is not in the stack", v)
			}
			delete(model, v)
		}
		for step, b := range script {
			arg := int(b>>3)%8 + 1
			switch b % 8 {
			case 0, 1:
				h.Push(next)
				model[next] = true
				next++
			case 2:
				if v, ok := h.Pop(); ok {
					popped(v)
				} else if len(model) != 0 {
					t.Fatalf("Pop reported empty with %d items held", len(model))
				}
			case 3:
				if v, ok := h.TryPop(); ok {
					popped(v)
				}
			case 4:
				vs := make([]uint64, arg)
				for i := range vs {
					vs[i] = next
					model[next] = true
					next++
				}
				h.PushBatch(vs)
			case 5:
				for _, v := range h.PopBatch(arg) {
					popped(v)
				}
			case 6:
				if w := s.Width(); w > 1 {
					if err := s.SetWidth(max(1, w-arg)); err != nil {
						t.Fatal(err)
					}
				}
			case 7:
				if err := s.SetWidth(min(8, s.Width()+arg)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("step %d (op %#x): %v", step, b, err)
			}
			if s.Len() != len(model) {
				t.Fatalf("step %d (op %#x): Len %d, model holds %d", step, b, s.Len(), len(model))
			}
		}
		for _, v := range s.Drain() {
			popped(v)
		}
		if len(model) != 0 {
			t.Fatalf("drain left %d items behind", len(model))
		}
	})
}
