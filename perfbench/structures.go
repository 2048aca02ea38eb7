package main

import (
	"fmt"

	"stack2d"
	"stack2d/internal/core"
	"stack2d/internal/twodqueue"
)

// ops is what one worker goroutine drives: a single handle it owns.
// Queues map Push/Pop onto Enqueue/Dequeue.
type ops interface {
	Push(v uint64)
	Pop() (uint64, bool)
}

// structure is one freshly built instance under test: the public API for
// the end-to-end and traced runs, or the layer below it (core.Stack,
// twodqueue.Queue) for the counter run.
type structure interface {
	handle() ops
	len() int
	drain() []uint64
	// counters returns the published op counters of the layer below the
	// public API; ok is false for the public API, which exposes none.
	counters() (st core.OpStats, ok bool)
	// names are the span names of a push and a pop call.
	names() (push, pop string)
	// geometry describes the instance for the result stamp.
	geometry() string
}

// flush publishes a handle's buffered operations, where it buffers.
func flush(h ops) {
	if f, ok := h.(interface{ Flush() }); ok {
		f.Flush()
	}
}

// flushStats publishes a handle's op counters, where it keeps them.
func flushStats(h ops) {
	if f, ok := h.(interface{ FlushStats() }); ok {
		f.FlushStats()
	}
}

func describe(width int, depth, shift, k int64) string {
	return fmt.Sprintf("width=%d depth=%d shift=%d k=%d", width, depth, shift, k)
}

// pubStack is the public stack2d.Stack; with bufCap > 0 it is built
// WithOpBuffer, so every handle it hands out buffers.
type pubStack struct{ s *stack2d.Stack[uint64] }

func newPubStack(p, bufCap int) structure {
	opts := []stack2d.Option{stack2d.WithExpectedThreads(p)}
	if bufCap > 0 {
		opts = append(opts, stack2d.WithOpBuffer(bufCap))
	}
	return pubStack{stack2d.New[uint64](opts...)}
}

func (p pubStack) handle() ops                    { return p.s.NewHandle() }
func (p pubStack) len() int                       { return p.s.Len() }
func (p pubStack) drain() []uint64                { return p.s.Drain() }
func (p pubStack) counters() (core.OpStats, bool) { return core.OpStats{}, false }
func (p pubStack) names() (string, string)        { return "stack2d.Handle.Push", "stack2d.Handle.Pop" }
func (p pubStack) geometry() string {
	c := p.s.Config()
	return describe(c.Width, c.Depth, c.Shift, c.K())
}

// pubQueue is the public stack2d.Queue.
type pubQueue struct{ q *stack2d.Queue[uint64] }

type pubQueueHandle struct{ h *stack2d.QueueHandle[uint64] }

func (h pubQueueHandle) Push(v uint64)       { h.h.Enqueue(v) }
func (h pubQueueHandle) Pop() (uint64, bool) { return h.h.Dequeue() }
func (h pubQueueHandle) Flush()              { h.h.Flush() }

func newPubQueue(p, _ int) structure {
	return pubQueue{stack2d.NewQueue[uint64](stack2d.WithQueueExpectedThreads(p))}
}

func (p pubQueue) handle() ops                    { return pubQueueHandle{p.q.NewHandle()} }
func (p pubQueue) len() int                       { return p.q.Len() }
func (p pubQueue) drain() []uint64                { return p.q.Drain() }
func (p pubQueue) counters() (core.OpStats, bool) { return core.OpStats{}, false }
func (p pubQueue) names() (string, string) {
	return "stack2d.QueueHandle.Enqueue", "stack2d.QueueHandle.Dequeue"
}
func (p pubQueue) geometry() string {
	c := p.q.Config()
	return describe(c.Width, c.Depth, c.Shift, c.K())
}

// coreStack is internal/core's stack with the geometry the public
// constructor derives; with bufCap > 0 each handle is armed with the op
// buffer exactly as stack2d.WithOpBuffer arms it.
type coreStack struct {
	s      *core.Stack[uint64]
	bufCap int
}

// bufferedCore drives a core handle through its op buffer.
type bufferedCore struct{ h *core.Handle[uint64] }

func (b bufferedCore) Push(v uint64)       { b.h.BufferedPush(v) }
func (b bufferedCore) Pop() (uint64, bool) { return b.h.BufferedPop() }
func (b bufferedCore) Flush()              { b.h.FlushOps() }
func (b bufferedCore) FlushStats()         { b.h.FlushStats() }

func newCoreStack(p, bufCap int) structure {
	return coreStack{core.MustNew[uint64](core.DefaultConfig(p)), bufCap}
}

func (c coreStack) handle() ops {
	h := c.s.NewHandle()
	if c.bufCap > 0 {
		h.SetOpBuffer(c.bufCap)
		return bufferedCore{h}
	}
	return h
}
func (c coreStack) len() int                       { return c.s.Len() }
func (c coreStack) drain() []uint64                { return c.s.Drain() }
func (c coreStack) counters() (core.OpStats, bool) { return c.s.StatsSnapshot(), true }
func (c coreStack) names() (string, string)        { return "core.Handle.Push", "core.Handle.Pop" }
func (c coreStack) geometry() string {
	g := c.s.Config()
	return describe(g.Width, g.Depth, g.Shift, g.K())
}

// coreQueue is internal/twodqueue's queue with the public default geometry.
type coreQueue struct{ q *twodqueue.Queue[uint64] }

type coreQueueHandle struct{ h *twodqueue.Handle[uint64] }

func (h coreQueueHandle) Push(v uint64)       { h.h.Enqueue(v) }
func (h coreQueueHandle) Pop() (uint64, bool) { return h.h.Dequeue() }
func (h coreQueueHandle) FlushStats()         { h.h.FlushStats() }

func newCoreQueue(p, _ int) structure {
	return coreQueue{twodqueue.MustNew[uint64](twodqueue.DefaultConfig(p))}
}

func (c coreQueue) handle() ops                    { return coreQueueHandle{c.q.NewHandle()} }
func (c coreQueue) len() int                       { return c.q.Len() }
func (c coreQueue) drain() []uint64                { return c.q.Drain() }
func (c coreQueue) counters() (core.OpStats, bool) { return c.q.StatsSnapshot(), true }
func (c coreQueue) names() (string, string) {
	return "twodqueue.Handle.Enqueue", "twodqueue.Handle.Dequeue"
}
func (c coreQueue) geometry() string {
	g := c.q.Config()
	return describe(g.Width, g.Depth, g.Shift, g.K())
}
