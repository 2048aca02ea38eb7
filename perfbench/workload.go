package main

import (
	"iter"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"stack2d/internal/core"
	"stack2d/internal/quality"
)

// workload is one named input set. Every workload is a closed loop: P
// goroutines, one handle each, each issuing its next call as soon as the
// previous one returns.
type workload struct {
	name string
	// public builds the structure behind the public API; lower builds the
	// same geometry one layer down, whose op counters the traced run reads.
	public, lower func(p, bufCap int) structure
	lowerLayer    string // "core" or "twodqueue"
	pool          bool   // task-tree expansion instead of the push/pop mix
	fifo          bool   // rank error against FIFO rather than LIFO order
	bufCap        int    // op buffer capacity; 0 = unbuffered
}

var workloads = []workload{
	{name: "stack-mixed", public: newPubStack, lower: newCoreStack, lowerLayer: "core"},
	{name: "taskpool-buffered", public: newPubStack, lower: newCoreStack, lowerLayer: "core", pool: true, bufCap: opBufferCap},
	{name: "queue-mixed", public: newPubQueue, lower: newCoreQueue, lowerLayer: "twodqueue", fifo: true},
}

// opBufferCap is the taskpool's op buffer capacity (stack2d.WithOpBuffer),
// which the ledger's buffered row uses too.
const opBufferCap = 16

// A worker's op sequence is patternLen calls long (a round takes a stretch
// of it, the next round the next stretch) and is made of blocks
// of blockLen calls, half of them pushes, each block in its own seeded
// random order. Balancing every block keeps the population within a few
// hundred items of the prefill for any seed, so rounds of different seeds
// do the same work and no pop may find the structure empty. Blocks this
// long let each worker's population wander across several windows
// (depth 64), so window moves and hops, which cause nearly all the rank
// error, happen often enough for the error to average out within a run.
const (
	patternLen = 1 << 22
	blockLen   = 1 << 16
)

// pattern returns worker g's op sequence as a bitset (1 = push), and the
// lowest running balance (pushes − pops) any block reaches. Cycling
// through the pattern from any block boundary never goes lower.
func pattern(seed uint64, g int) ([]uint64, int) {
	push := make([]bool, blockLen)
	bits := make([]uint64, patternLen/64)
	key := splitmix(seed ^ uint64(g+1)*0x9e3779b97f4a7c15)
	low := 0
	for blk := 0; blk < patternLen; blk += blockLen {
		for i := range push {
			push[i] = i < blockLen/2
		}
		for i := blockLen - 1; i > 0; i-- {
			j := splitmix(key+uint64(blk+i)) % uint64(i+1)
			push[i], push[j] = push[j], push[i]
		}
		bal := 0
		for i, p := range push {
			if p {
				bits[(blk+i)/64] |= 1 << ((blk + i) % 64)
				bal++
			} else {
				bal--
			}
			low = min(low, bal)
		}
	}
	return bits, low
}

// tree is the seeded task tree of the taskpool workload. A task is packed
// as id<<32 | size, where size counts the task and all its descendants;
// ids are preorder positions, so they are unique and fill [0, size of the
// root). A task of size s has 1..5 children (seeded) sharing s−1.
type tree struct {
	seed uint64
	size uint64
}

func (t tree) root() uint64 { return t.size }

// children appends task v's children to out.
func (t tree) children(v uint64, out []uint64) []uint64 {
	id, rest := v>>32, v&(1<<32-1)-1
	if rest == 0 {
		return out
	}
	x := splitmix(t.seed ^ id)
	c := min(1+x%5, rest)
	next := id + 1
	for j := uint64(1); j < c; j++ {
		x = splitmix(x)
		part := 1 + x%(rest-(c-j))
		out = append(out, next<<32|part)
		next += part
		rest -= part
	}
	return append(out, next<<32|rest)
}

// spin is the task's work: a short dependent chain, as in
// examples/taskpool.
func spin(x uint64) uint64 {
	for range 16 {
		x = x*6364136223846793005 + 1442695040888963407
	}
	return x
}

// round is what one round measured: one fresh structure, set up, driven
// by P goroutines to a fixed amount of work, then drained and audited.
type round struct {
	setup, wall, cpu time.Duration
	ops              uint64 // successful calls: pushes, and pops that returned a value
	attempted        uint64 // every call made, empty pops included
	failed           uint64 // exactly-once violations and empty pops the accounting rules out
	mem              memSnap
	lat              []int64      // sorted latency samples (untraced rounds)
	counters         core.OpStats // layer counter deltas, one layer down only
	// taskpool only
	tasks, idlePops uint64
	idleNs          int64
}

// bench holds one run's inputs and the buffers its rounds reuse.
type bench struct {
	cfg      config
	wl       workload
	pats     [][]uint64
	tree     tree
	takers   []*labelSet // one per worker, then one for the final drain
	expected *labelSet
	lat      [][]int64
	rings    []*spanRing // traced runs: one per worker, then the main goroutine's
	names    spanNames
	rounds   int // mixed rounds run so far
}

func (b *bench) mainRing() *spanRing { return b.rings[b.cfg.procs] }

// handles builds the workers' handles, mirrored into the oracle on an
// oracle pass; the configured test hook wraps the workers' outside that.
func (b *bench) handles(st structure, orc *oraclePass) []ops {
	hs := make([]ops, b.cfg.procs)
	for g := range hs {
		hs[g] = orc.wrap(st.handle())
		if b.cfg.wrap != nil {
			hs[g] = b.cfg.wrap(hs[g])
		}
	}
	return hs
}

// samplers prepares each worker's sampler: every 64th call timed when
// untraced, every 16th call recorded as a span when traced. calls bounds
// the calls one worker makes, so the latency buffers never grow mid-round.
func (b *bench) samplers(st structure, traced bool, calls int, roundSpan uint64) []*sampler {
	push, pop := st.names()
	out := make([]*sampler, b.cfg.procs)
	for g := range out {
		s := &sampler{mask: 63, pushTag: b.names.id(push), popTag: b.names.id(pop)}
		if traced {
			s.mask = 15
			s.ring = b.rings[g]
			s.parent = roundSpan
		} else {
			s.lat = b.lat[g][:0]
			if cap(s.lat) < calls/64+1 {
				s.lat = make([]int64, 0, calls/64+1)
			}
		}
		out[g] = s
	}
	return out
}

// roundSpan opens a traced round's span.
func (b *bench) roundSpan(traced bool) uint64 {
	if !traced {
		return 0
	}
	return b.mainRing().add(0, b.names.id("round "+b.wl.name), 0, 0)
}

// measure releases work on P goroutines at once, each driving its handle
// from hs, and records the wall, CPU and allocation figures and the layer
// counters of the interval they ran in. progress, when set, reports
// completed work; if it stalls for the configured timeout, abort is set
// so the workers give up. roundSpan, when traced, is the round's span,
// timed here. On an oracle pass the workers are interleaved instead.
func (b *bench) measure(r *round, st structure, traced bool, roundSpan uint64, hs []ops, work func(g int, h ops), progress func() uint64, abort *atomic.Bool, orc *oraclePass) {
	if orc != nil {
		interleave(hs, work, orc.order, abort)
		return
	}
	before, _ := st.counters()
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for g := range b.cfg.procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			work(g, hs[g])
		}()
	}
	m0, c0 := readMem(), cpuTime()
	t0 := now()
	close(gate)
	if progress == nil {
		wg.Wait()
	} else {
		b.watch(&wg, progress, abort)
	}
	t1 := now()
	r.wall, r.cpu, r.mem = time.Duration(t1-t0), cpuTime()-c0, readMem().sub(m0)
	if after, ok := st.counters(); ok {
		r.counters = after.Sub(before)
	}
	if traced {
		b.mainRing().set(roundSpan, t0, t1)
	}
}

// watch waits for wg, setting abort when progress stops moving for the
// stall timeout (a lost task leaves the taskpool waiting forever).
func (b *bench) watch(wg *sync.WaitGroup, progress func() uint64, abort *atomic.Bool) {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	last, since := progress(), now()
	for {
		select {
		case <-done:
			return
		case <-tick.C:
			if p := progress(); p != last {
				last, since = p, now()
			} else if time.Duration(now()-since) > b.cfg.stallTimeout {
				abort.Store(true)
			}
		}
	}
}

// mixedRound runs one round of the push/pop mix: prefill, then each
// worker runs perWorker calls of its pattern, starting at call from (a
// block boundary). Worker g pushes the labels
// prefill+g, prefill+g+P, ..., so every label is unique.
func (b *bench) mixedRound(mk func(int, int) structure, traced bool, from, perWorker int, orc *oraclePass) round {
	c := &b.cfg
	P := c.procs
	runtime.GC()
	t0 := now()
	st := mk(P, b.wl.bufCap)
	h0 := orc.wrap(st.handle())
	for i := range c.prefill {
		h0.Push(uint64(i))
	}
	flush(h0)
	flushStats(h0)
	hs := b.handles(st, orc)
	r := round{setup: time.Duration(now() - t0)}

	for _, t := range b.takers {
		t.reset()
	}
	rs := b.roundSpan(traced)
	smps := b.samplers(st, traced, perWorker, rs)
	type counts struct {
		pushes, pops, empties uint64
		_                     [40]byte // keep workers' results off each other's cache line
	}
	res := make([]counts, P)
	b.measure(&r, st, traced, rs, hs, func(g int, h ops) {
		res[g].pushes, res[g].pops, res[g].empties = runMixed(h, b.pats[g], from, perWorker, uint64(c.prefill+g), uint64(P), b.takers[g], smps[g])
		flush(h)
		flushStats(h)
	}, nil, nil, orc)

	drain := b.takers[P]
	for _, v := range st.drain() {
		drain.mark(v)
	}
	exp := b.expected
	exp.reset()
	for i := range c.prefill {
		exp.set(uint64(i))
	}
	for g, rs := range res {
		for i := range rs.pushes {
			exp.set(uint64(c.prefill+g) + i*uint64(P))
		}
		r.ops += rs.pushes + rs.pops
		r.attempted += rs.pushes + rs.pops + rs.empties
		// The patterns keep the population above P at every instant
		// (checked at start-up), so an empty pop is always wrong.
		r.failed += rs.empties
	}
	r.failed += audit(exp, b.takers)
	b.keepLatency(&r, smps, traced)
	return r
}

// runMixed is one worker's loop: n calls of its pattern from call from.
func runMixed(h ops, pat []uint64, from, n int, lbl, step uint64, seen *labelSet, smp *sampler) (pushes, pops, empties uint64) {
	mask, pm := smp.mask, len(pat)-1
	for i := from; i < from+n; i++ {
		push := pat[(i>>6)&pm]>>(i&63)&1 != 0
		var v uint64
		ok := true
		if i&mask != 0 {
			if push {
				h.Push(lbl)
			} else {
				v, ok = h.Pop()
			}
		} else {
			t0 := now()
			if push {
				h.Push(lbl)
			} else {
				v, ok = h.Pop()
			}
			smp.add(push, t0, now())
		}
		switch {
		case push:
			lbl += step
			pushes++
		case ok:
			seen.mark(v)
			pops++
		default:
			empties++
		}
	}
	return pushes, pops, empties
}

// poolWorker is one taskpool worker's tally.
type poolWorker struct {
	progress                               atomic.Uint64
	pushes, pops, empties, tasks, idlePops uint64
	idleNs                                 int64
	sink                                   uint64
	_                                      [64]byte
}

// poolRound expands the whole task tree once: the root is pushed at set
// up, and the workers pop a task, spin, push its children, and stop when
// no task is left in flight.
func (b *bench) poolRound(mk func(int, int) structure, traced bool, orc *oraclePass) round {
	P := b.cfg.procs
	runtime.GC()
	t0 := now()
	st := mk(P, b.wl.bufCap)
	h0 := orc.wrap(st.handle())
	h0.Push(b.tree.root())
	flush(h0)
	flushStats(h0)
	hs := b.handles(st, orc)
	r := round{setup: time.Duration(now() - t0)}

	for _, t := range b.takers {
		t.reset()
	}
	rs := b.roundSpan(traced)
	smps := b.samplers(st, traced, int(2*b.tree.size), rs)
	ws := make([]poolWorker, P)
	var inFlight atomic.Int64
	inFlight.Store(1)
	var abort atomic.Bool
	progress := func() uint64 {
		var n uint64
		for g := range ws {
			n += ws[g].progress.Load()
		}
		return n
	}
	b.measure(&r, st, traced, rs, hs, func(g int, h ops) {
		ws[g].run(h, b.tree, &inFlight, &abort, st.len, smps[g], b.takers[g])
		flush(h)
		flushStats(h)
	}, progress, &abort, orc)

	drain := b.takers[P]
	left := st.drain()
	for _, v := range left {
		drain.mark(v >> 32)
	}
	exp := b.expected
	exp.reset()
	for i := range b.tree.size {
		exp.set(i)
	}
	for g := range ws {
		w := &ws[g]
		r.ops += w.pushes + w.pops
		r.attempted += w.pushes + w.pops + w.empties
		r.tasks += w.tasks
		r.idlePops += w.idlePops
		r.idleNs += w.idleNs
	}
	// A task still in the structure when the pool finished was never
	// processed; audit sees it as taken (by the drain), so count it here.
	r.failed = audit(exp, b.takers) + uint64(len(left))
	b.keepLatency(&r, smps, traced)
	return r
}

// run is one taskpool worker's loop. An empty pop starts an idle streak;
// the streak counts as idle time if the structure's Len shows work held
// elsewhere (in another handle's op buffer) when it starts.
func (w *poolWorker) run(h ops, t tree, inFlight *atomic.Int64, abort *atomic.Bool, held func() int, smp *sampler, seen *labelSet) {
	var kids [5]uint64
	var sink uint64
	idle, heldWork := false, false
	var idleStart int64
	mask, calls := smp.mask, 0
	for inFlight.Load() > 0 {
		var v uint64
		var ok bool
		if calls&mask != 0 {
			v, ok = h.Pop()
		} else {
			t0 := now()
			if v, ok = h.Pop(); ok {
				smp.add(false, t0, now())
			}
		}
		calls++
		if !ok {
			w.empties++
			if !idle {
				idle, idleStart, heldWork = true, now(), held() > 0
			}
			if heldWork {
				w.idlePops++
			}
			if abort.Load() {
				break
			}
			continue
		}
		if idle {
			idle = false
			if heldWork {
				w.idleNs += now() - idleStart
			}
		}
		w.pops++
		seen.mark(v >> 32)
		sink += spin(v)
		cs := t.children(v, kids[:0])
		inFlight.Add(int64(len(cs)))
		for _, c := range cs {
			if calls&mask != 0 {
				h.Push(c)
			} else {
				t0 := now()
				h.Push(c)
				smp.add(true, t0, now())
			}
			calls++
		}
		w.pushes += uint64(len(cs))
		w.tasks++
		inFlight.Add(-1)
		if w.tasks&255 == 0 {
			w.progress.Store(w.tasks)
		}
	}
	if idle && heldWork {
		w.idleNs += now() - idleStart
	}
	w.progress.Store(w.tasks)
	w.sink = sink
}

// keepLatency merges the workers' latency samples into r, sorted, and
// keeps the buffers for the next round.
func (b *bench) keepLatency(r *round, smps []*sampler, traced bool) {
	if traced {
		return
	}
	var all []int64
	for g, s := range smps {
		all = append(all, s.lat...)
		b.lat[g] = s.lat
	}
	slices.Sort(all)
	r.lat = all
}

// rankOracle is the quality oracle's interface: quality.Oracle (LIFO) or
// quality.FIFOOracle.
type rankOracle interface {
	Insert(label uint64)
	RemoveWithin(label uint64, patience time.Duration) (int, error)
	Snapshot() quality.Stats
}

// oracleHandle mirrors every call into the oracle: a push is inserted
// after it returns, and a popped value is removed, which records its
// distance from the head of the oracle's exact order.
type oracleHandle struct {
	h   ops
	orc *oraclePass
}

// oraclePatience bounds how long a removal waits for the insert of the
// value's push; a value that never appears is a lost or duplicated item.
const oraclePatience = 2 * time.Second

func (w oracleHandle) Push(v uint64) {
	w.h.Push(v)
	w.orc.o.Insert(v)
}

func (w oracleHandle) Pop() (uint64, bool) {
	v, ok := w.h.Pop()
	if ok {
		if _, err := w.orc.o.RemoveWithin(v, oraclePatience); err != nil {
			w.orc.errs++
		}
	}
	return v, ok
}

func (w oracleHandle) Flush()      { flush(w.h) }
func (w oracleHandle) FlushStats() { flushStats(w.h) }

// oraclePass is one rank-error measurement: a round whose calls are all
// mirrored into the quality oracle (LIFO for the stacks, FIFO for the
// queue), with the workers interleaved one call at a time in a seeded
// order. The interleaving runs on one goroutine, so the error measures
// the structure's relaxation under that order and does not move with the
// host's scheduling, which on a small shared host dominates the error of
// free-running workers.
type oraclePass struct {
	o     rankOracle
	errs  uint64 // removals of values the oracle never saw
	order uint64 // seeds the interleaving
}

// wrap mirrors h into the oracle; it returns h unchanged when orc is nil,
// which is every measured round.
func (orc *oraclePass) wrap(h ops) ops {
	if orc == nil {
		return h
	}
	return oracleHandle{h, orc}
}

// rankErrors runs oracle pass number pass over the workload's seeded
// inputs through the public API and returns the rank error statistics.
// Successive passes of a mixed workload take successive stretches of the
// patterns, and each pass interleaves the workers in its own order.
func (b *bench) rankErrors(pass int) (quality.Stats, round) {
	orc := &oraclePass{o: &quality.Oracle{}, order: splitmix(b.cfg.seed ^ uint64(pass+1)<<32)}
	if b.wl.fifo {
		orc.o = &quality.FIFOOracle{}
	}
	var r round
	if b.wl.pool {
		r = b.poolRound(b.wl.public, false, orc)
	} else {
		from := pass * b.cfg.oracleOps % patternLen
		r = b.mixedRound(b.wl.public, false, from, b.cfg.oracleOps, orc)
	}
	r.failed += orc.errs
	return orc.o.Snapshot(), r
}

// stepHandle hands control back to interleave after every call,
// reporting whether the call was an empty pop.
type stepHandle struct {
	h     ops
	yield func(emptyPop bool) bool
}

func (s stepHandle) Push(v uint64) {
	s.h.Push(v)
	s.yield(false)
}

func (s stepHandle) Pop() (uint64, bool) {
	v, ok := s.h.Pop()
	s.yield(!ok)
	return v, ok
}

func (s stepHandle) Flush()      { flush(s.h) }
func (s stepHandle) FlushStats() { flushStats(s.h) }

// interleave runs work for every worker on the calling goroutine, one
// call at a time: each worker is a coroutine that yields after each call
// through its handle, and a generator seeded with order picks the worker
// that makes the next call. When every live worker has popped empty since
// the last call that did anything, nothing can change any more (a task
// was lost), so abort, if given, is raised for the workers to give up.
func interleave(hs []ops, work func(g int, h ops), order uint64, abort *atomic.Bool) {
	type coroutine struct {
		next func() (bool, bool)
		idle bool
	}
	live := make([]*coroutine, len(hs))
	for g := range hs {
		next, stop := iter.Pull(func(yield func(bool) bool) {
			work(g, stepHandle{hs[g], yield})
		})
		defer stop()
		live[g] = &coroutine{next: next}
	}
	for len(live) > 0 {
		order = splitmix(order)
		i := int(order % uint64(len(live)))
		empty, ok := live[i].next()
		switch {
		case !ok:
			live = slices.Delete(live, i, i+1)
		case !empty:
			for _, c := range live {
				c.idle = false
			}
		default:
			live[i].idle = true
			if abort != nil && !slices.ContainsFunc(live, func(c *coroutine) bool { return !c.idle }) {
				abort.Store(true)
			}
		}
	}
}
