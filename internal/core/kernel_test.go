package core_test

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stack2d/internal/core"
	"stack2d/internal/twodqueue"
	"stack2d/internal/yield"
)

// kernelSubject is one structure seen through the window kernel's surface
// plus the few structure-specific calls the kernel test needs.
type kernelSubject struct {
	k interface {
		Epoch() uint64
		Width() int
		Reconfigure(core.Config) error
		SetWindow(depth, shift int64) error
		SetWidth(int) error
		SetPlacement(core.PlacementPolicy, int)
		Placement() []int
		StatsSnapshot() core.OpStats
	}
	registry  func() int
	len       func() int
	slots     func() []int64 // per-slot populations
	newHandle func() kernelHandle
}

type kernelHandle struct {
	insert, bufInsert func(int)
	remove, bufRemove func() (int, bool)
	setOpBuffer       func(int)
	flushOps          func()
	flushStats        func()
}

var kernelCases = []struct {
	name string
	make func(core.Config) kernelSubject
}{
	{"stack", func(cfg core.Config) kernelSubject {
		s := core.MustNew[int](cfg)
		return kernelSubject{
			k:        s,
			registry: func() int { return core.RegistryLen(&s.Kernel) },
			len:      s.Len,
			slots:    s.SubCounts,
			newHandle: func() kernelHandle {
				h := s.NewHandle()
				return kernelHandle{h.Push, h.BufferedPush, h.Pop, h.BufferedPop, h.SetOpBuffer, h.FlushOps, h.FlushStats}
			},
		}
	}},
	{"queue", func(cfg core.Config) kernelSubject {
		q := twodqueue.MustNew[int](cfg)
		return kernelSubject{
			k:        q,
			registry: func() int { return core.RegistryLen(&q.Kernel) },
			len:      q.Len,
			slots: func() []int64 {
				var out []int64
				for _, n := range q.SubLens() {
					out = append(out, int64(n))
				}
				return out
			},
			newHandle: func() kernelHandle {
				h := q.NewHandle()
				return kernelHandle{h.Enqueue, h.BufferedEnqueue, h.Dequeue, h.BufferedDequeue, h.SetOpBuffer, h.FlushOps, h.FlushStats}
			},
		}
	}},
}

// setGate installs a director hook for one test and removes it afterwards.
func setGate(t *testing.T, g func(yield.Point)) {
	core.Gate = g
	t.Cleanup(func() { core.Gate = nil })
}

// TestKernel checks the behaviour the stack and the queue share through the
// window kernel, once per structure.
func TestKernel(t *testing.T) {
	for _, c := range kernelCases {
		t.Run(c.name+"/dead-handle-stats-fold", func(t *testing.T) {
			// Abandoned handles are pruned from the registry on a later
			// registration, and their last published counters are folded
			// into StatsSnapshot exactly.
			sub := c.make(core.Config{Width: 2, Depth: 8, Shift: 8, RandomHops: 1})
			func() {
				for i := 0; i < 8; i++ {
					h := sub.newHandle()
					for j := 0; j < 10; j++ {
						h.insert(j)
					}
					h.flushStats()
				}
			}()
			deadline := time.Now().Add(5 * time.Second)
			for {
				runtime.GC()
				sub.newHandle() // registering prunes dead entries
				entries, snap := sub.registry(), sub.k.StatsSnapshot()
				if snap.Pushes != 80 {
					t.Fatalf("snapshot counts %d pushes with dead handles unpruned or pruned, want exactly 80", snap.Pushes)
				}
				if entries <= 3 {
					return
				}
				if time.Now().After(deadline) {
					t.Fatalf("registry still holds %d entries, want <= 3", entries)
				}
				time.Sleep(10 * time.Millisecond)
			}
		})

		t.Run(c.name+"/shrink-waits-for-pinned-handle", func(t *testing.T) {
			// Fill every slot to the window ceiling, so the next insert
			// pins the geometry and yields at PointWindowMove; park it
			// there and shrink. The shrink must wait (PointWait) until
			// the parked operation finishes, and lose nothing.
			const width, depth = 4, 2
			sub := c.make(core.Config{Width: width, Depth: depth, Shift: depth, RandomHops: 0})
			h := sub.newHandle()
			for i := 0; i < width*depth; i++ {
				h.insert(i)
			}
			parked, release := make(chan struct{}, 1), make(chan struct{})
			var waits atomic.Int32
			setGate(t, func(p yield.Point) {
				switch p {
				case yield.PointWindowMove:
					select {
					case parked <- struct{}{}:
						<-release
					default:
					}
				case yield.PointWait:
					if waits.Add(1) == 1 {
						close(release)
					}
				}
			})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				h.insert(width * depth)
			}()
			<-parked
			if err := sub.k.SetWidth(2); err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			if waits.Load() == 0 {
				t.Fatal("shrink returned without waiting at PointWait for the pinned handle")
			}
			if got := sub.len(); got != width*depth+1 {
				t.Fatalf("Len = %d after shrink, want %d", got, width*depth+1)
			}
		})

		t.Run(c.name+"/len-counts-buffered-residents", func(t *testing.T) {
			sub := c.make(core.Config{Width: 2, Depth: 8, Shift: 8, RandomHops: 1})
			h := sub.newHandle()
			h.setOpBuffer(8)
			for i := 0; i < 3; i++ {
				h.bufInsert(i)
			}
			if got := sub.len(); got != 3 {
				t.Fatalf("Len = %d with 3 pending insertions, want 3", got)
			}
			h.flushOps()
			other := sub.newHandle()
			for i := 3; i < 13; i++ {
				other.insert(i)
			}
			// One buffered removal refills the prefetch with a batch of 8
			// and delivers one: 7 prefetched, 5 in the structure.
			if _, ok := h.bufRemove(); !ok {
				t.Fatal("buffered removal found nothing")
			}
			if got := sub.len(); got != 12 {
				t.Fatalf("Len = %d with 7 prefetched and 5 published, want 12", got)
			}
		})

		t.Run(c.name+"/placement-rehomes-without-moving", func(t *testing.T) {
			sub := c.make(core.Config{Width: 4, Depth: 8, Shift: 8, RandomHops: 1})
			h := sub.newHandle()
			for i := 0; i < 19; i++ {
				h.insert(i)
			}
			before, epoch := sub.slots(), sub.k.Epoch()
			sub.k.SetPlacement(core.LocalFirst(), 2)
			if got := sub.slots(); !reflect.DeepEqual(got, before) {
				t.Fatalf("slot populations moved on re-home: %v -> %v", before, got)
			}
			if got, want := sub.k.Placement(), []int{0, 1, 0, 1}; !reflect.DeepEqual(got, want) {
				t.Fatalf("homes after SetPlacement = %v, want %v", got, want)
			}
			if sub.k.Epoch() != epoch+1 || sub.len() != 19 {
				t.Fatalf("epoch %d -> %d, Len %d; want one new epoch and 19 items", epoch, sub.k.Epoch(), sub.len())
			}
		})

		t.Run(c.name+"/geometry-publish-once-per-reconfig", func(t *testing.T) {
			sub := c.make(core.Config{Width: 4, Depth: 8, Shift: 8, RandomHops: 1})
			var publishes atomic.Int32
			setGate(t, func(p yield.Point) {
				if p == yield.PointGeometryPublish {
					publishes.Add(1)
				}
			})
			steps := []struct {
				apply func() error
				ok    bool // accepted
				moves bool // publishes a new geometry
			}{
				{func() error { return sub.k.SetWindow(16, 8) }, true, true},
				{func() error { return sub.k.SetWidth(8) }, true, true},
				{func() error { return sub.k.SetWidth(2) }, true, true},
				{func() error { return sub.k.Reconfigure(core.Config{Width: 2, Depth: 16, Shift: 8, RandomHops: 1}) }, true, false},
				{func() error { return sub.k.Reconfigure(core.Config{Width: 3, Depth: 4, Shift: 4, RandomHops: 0}) }, true, true},
				{func() error { return sub.k.SetWidth(0) }, false, false},
			}
			for i, st := range steps {
				before, epoch := publishes.Load(), sub.k.Epoch()
				if err := st.apply(); (err == nil) != st.ok {
					t.Fatalf("step %d: err %v, want accepted=%v", i, err, st.ok)
				}
				want := int32(0)
				if st.moves {
					want = 1
				}
				if got := publishes.Load() - before; got != want {
					t.Fatalf("step %d: %d geometry publishes, want %d", i, got, want)
				}
				if got := sub.k.Epoch() - epoch; got != uint64(want) {
					t.Fatalf("step %d: epoch advanced by %d, want %d", i, got, want)
				}
			}
		})
	}
}
