package twodqueue

import (
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"stack2d/internal/pad"
)

// TestSubQueueLayout pins the two-line layout: head and deqs on the first
// cache line, tail and enqs on the second, nothing else.
func TestSubQueueLayout(t *testing.T) {
	var sq subQueue[uint64]
	if got := unsafe.Sizeof(sq); got != 2*pad.CacheLineSize {
		t.Fatalf("subQueue is %d bytes, want two cache lines (%d)", got, 2*pad.CacheLineSize)
	}
	if off := unsafe.Offsetof(sq.deqs); off >= pad.CacheLineSize {
		t.Fatalf("deqs at offset %d, off the head's line", off)
	}
	if off := unsafe.Offsetof(sq.tail); off != pad.CacheLineSize {
		t.Fatalf("tail at offset %d, want the second line (%d)", off, pad.CacheLineSize)
	}
	if off := unsafe.Offsetof(sq.enqs); off < pad.CacheLineSize {
		t.Fatalf("enqs at offset %d, off the tail's line", off)
	}
}

// lagTail links n after sub-queue 0's tail without swinging the tail and
// counts it as enqueued: the state an enqueuer leaves when it stalls
// between its link CAS and its tail swing. The next enqueue on the
// sub-queue meets a lagging tail, helps it forward and loses that attempt.
func lagTail(q *Queue[uint64], n *node[uint64]) {
	sq := q.Geo().Subs[0]
	sq.tail.Load().next.Store(n)
	sq.enqs.Add(1)
}

// TestEnqueueReusesNodeAfterLaggingTail pins the one-node-per-Enqueue rule
// on the retry path: an Enqueue whose first attempt meets a lagging tail
// counts a contended round, retries, links the very node it allocated
// before the search, and allocates once in total. (A lost link CAS leaves
// the node unlinked in the same way; that race cannot be staged
// sequentially.)
func TestEnqueueReusesNodeAfterLaggingTail(t *testing.T) {
	q := MustNew[uint64](Config{Width: 1, Depth: 1 << 20, Shift: 1 << 20})
	h := q.NewHandle()
	const runs = 1000
	lag := make([]node[uint64], runs+1) // AllocsPerRun adds one warm-up call
	var want []uint64
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		lagTail(q, &lag[i])
		lag[i].value = uint64(2 * i)
		v := uint64(2*i + 1)
		h.Enqueue(v)
		sq := q.Geo().Subs[0]
		if tail := sq.tail.Load(); tail.value != v || lag[i].next.Load() != tail || tail.next.Load() != nil {
			t.Fatalf("run %d: the retry did not link its one node right after the lagging tail", i)
		}
		want = append(want, lag[i].value, v)
		i++
	})
	if allocs != 1 {
		t.Fatalf("Enqueue over a lagging tail allocates %v per op, want 1", allocs)
	}
	if got := h.Stats().CASFailures; got != runs+1 {
		t.Fatalf("CASFailures = %d, want one per lagging-tail attempt (%d)", got, runs+1)
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := q.Drain(); !slices.Equal(got, want) {
		t.Fatalf("drain order differs from the link order (%d items, want %d)", len(got), len(want))
	}
}

// TestEnqueueBatchAllocsPerValue pins EnqueueBatch at one node per value,
// never one per attempt: each batch first meets a lagging tail, so its
// first value takes two attempts.
func TestEnqueueBatchAllocsPerValue(t *testing.T) {
	q := MustNew[uint64](Config{Width: 1, Depth: 1 << 20, Shift: 1 << 20})
	h := q.NewHandle()
	const runs, batch = 200, 8
	lag := make([]node[uint64], runs+1)
	vs := make([]uint64, batch)
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		lagTail(q, &lag[i])
		i++
		h.EnqueueBatch(vs)
	})
	if allocs != batch {
		t.Fatalf("EnqueueBatch of %d allocates %v per batch, want %d (one node per value)", batch, allocs, batch)
	}
	if got := h.Stats().CASFailures; got != runs+1 {
		t.Fatalf("CASFailures = %d, want one per lagging-tail attempt (%d)", got, runs+1)
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got, want := q.Len(), (runs+1)*(batch+1); got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
}

// TestDequeuedValueIsCollectable is the regression test for dummy-node
// value pinning: the node a winning dequeue turns into the new dummy must
// not keep its value, or the most recently dequeued item stays reachable
// from the sub-queue until the next dequeue passes it. A finalizer on the
// dequeued allocation proves the queue dropped its reference, on the
// singleton and on the batch dequeue path.
func TestDequeuedValueIsCollectable(t *testing.T) {
	paths := map[string]func(h *Handle[*[]byte]) (*[]byte, bool){
		"dequeue": func(h *Handle[*[]byte]) (*[]byte, bool) { return h.Dequeue() },
		"dequeue-batch": func(h *Handle[*[]byte]) (*[]byte, bool) {
			out := h.DequeueBatch(1)
			if len(out) != 1 {
				return nil, false
			}
			return out[0], true
		},
	}
	for name, dequeue := range paths {
		t.Run(name, func(t *testing.T) {
			q := MustNew[*[]byte](Config{Width: 1, Depth: 4, Shift: 4})
			h := q.NewHandle()
			big := new([]byte)
			*big = make([]byte, 1<<16)
			collected := make(chan struct{})
			runtime.SetFinalizer(big, func(*[]byte) { close(collected) })
			h.Enqueue(big)
			h.Enqueue(new([]byte)) // second item so the sub-queue stays non-empty
			got, ok := dequeue(h)
			if !ok || got != big {
				t.Fatalf("dequeue = (%p,%v), want the enqueued pointer", got, ok)
			}
			got, big = nil, nil
			deadline := time.After(5 * time.Second)
			for {
				runtime.GC()
				select {
				case <-collected:
					if v, ok := h.Dequeue(); !ok || v == nil {
						t.Fatal("queue lost its remaining item")
					}
					return
				case <-deadline:
					t.Fatal("dequeued value still reachable: the dummy node pinned it")
				default:
					time.Sleep(time.Millisecond)
				}
			}
		})
	}
}

// FuzzSequentialQueueOps drives one handle through the whole operation
// alphabet — Enqueue, Dequeue, EnqueueBatch, DequeueBatch, width shrink and
// width growth — against a multiset model of the queued labels, checking
// the structural invariants (list lengths against the window counters,
// tails, window bands) and the exact length after every step, and the
// exact contents at the final drain. A single handle never sees a spurious
// empty: Dequeue reports empty, and DequeueBatch comes back short, only
// when the model is out of items. Explore with
// `go test -fuzz=FuzzSequentialQueueOps ./internal/twodqueue`.
func FuzzSequentialQueueOps(f *testing.F) {
	f.Add(uint8(0), uint8(3), []byte{0x00, 0x02, 0x01, 0x02, 0x03})
	f.Add(uint8(3), uint8(7), []byte{0x24, 0x02, 0x02, 0x15, 0x06, 0x00, 0x1d})
	f.Add(uint8(5), uint8(0x11), []byte{0x3c, 0x3c, 0x3c, 0x0f, 0x0f, 0x35, 0x07, 0x02, 0x2d})
	f.Add(uint8(7), uint8(0x20), []byte{0x3c, 0x00, 0x00, 0x06, 0x06, 0x06, 0x1f, 0x03, 0x2d, 0x2d})
	f.Add(uint8(2), uint8(0x39), []byte{0x3c, 0x3c, 0x3c, 0x3c, 0x3f, 0x3c, 0x2e, 0x3d, 0x3d, 0x3d, 0x3d})
	f.Fuzz(func(t *testing.T, widthRaw, depthRaw uint8, script []byte) {
		width := int(widthRaw%8) + 1
		depth := int64(depthRaw%8) + 1
		shift := int64(depthRaw>>3)%depth + 1
		q := MustNew[uint64](Config{Width: width, Depth: depth, Shift: shift, RandomHops: 1})
		h := q.NewHandle()
		model := map[uint64]bool{}
		next := uint64(1)
		dequeued := func(v uint64) {
			t.Helper()
			if !model[v] {
				t.Fatalf("dequeued %d, which is not in the queue", v)
			}
			delete(model, v)
		}
		for step, b := range script {
			arg := int(b>>3)%8 + 1
			switch b % 8 {
			case 0, 1:
				h.Enqueue(next)
				model[next] = true
				next++
			case 2, 3:
				if v, ok := h.Dequeue(); ok {
					dequeued(v)
				} else if len(model) != 0 {
					t.Fatalf("Dequeue reported empty with %d items held", len(model))
				}
			case 4:
				vs := make([]uint64, arg)
				for i := range vs {
					vs[i] = next
					model[next] = true
					next++
				}
				h.EnqueueBatch(vs)
			case 5:
				want := min(arg, len(model))
				out := h.DequeueBatch(arg)
				if len(out) != want {
					t.Fatalf("DequeueBatch(%d) returned %d values with %d items held", arg, len(out), len(model))
				}
				for _, v := range out {
					dequeued(v)
				}
			case 6:
				if w := q.Width(); w > 1 {
					if err := q.SetWidth(max(1, w-arg)); err != nil {
						t.Fatal(err)
					}
				}
			case 7:
				if err := q.SetWidth(min(8, q.Width()+arg)); err != nil {
					t.Fatal(err)
				}
			}
			if err := q.CheckInvariants(); err != nil {
				t.Fatalf("step %d (op %#x): %v", step, b, err)
			}
			if q.Len() != len(model) {
				t.Fatalf("step %d (op %#x): Len %d, model holds %d", step, b, q.Len(), len(model))
			}
		}
		for _, v := range q.Drain() {
			dequeued(v)
		}
		if len(model) != 0 {
			t.Fatalf("drain left %d items behind", len(model))
		}
	})
}
