package main

import (
	"stack2d"
	"stack2d/internal/core"
	"stack2d/internal/msqueue"
	"stack2d/internal/relax"
	"stack2d/internal/treiber"
	"stack2d/internal/twodqueue"
)

// ledgerRow is one entry point of the layer ledger, driven from one
// goroutine in push+pop pairs on an otherwise empty structure. A row's
// self time is its ns per pair minus the row of the layer it calls.
type ledgerRow struct {
	metric string // per-layer metric: ns per push+pop pair
	allocs string // per-layer metric: allocations per pair, or ""
	run    func(n int) (fails int)
	len    func() int
	close  func()
}

// pairs drives n push+pop pairs; a pop that finds nothing right after a
// push fails.
func pairs(push func(uint64), pop func() (uint64, bool)) func(int) int {
	return func(n int) int {
		fails := 0
		for i := range n {
			push(uint64(i))
			if _, ok := pop(); !ok {
				fails++
			}
		}
		return fails
	}
}

func noClose() {}

// ledgerRows builds every ledger entry point with the geometry the
// workloads use for P workers. The treiber and msqueue rows are the
// anchors the other rows are read against.
func ledgerRows(p int) []ledgerRow {
	cfg := core.DefaultConfig(p)
	tr := treiber.New[uint64]()
	cs := core.MustNew[uint64](cfg)
	ch := cs.NewHandle()
	ps := stack2d.New[uint64](stack2d.WithExpectedThreads(p))
	ph := ps.NewHandle()
	pooled := stack2d.New[uint64](stack2d.WithExpectedThreads(p))
	bs := stack2d.New[uint64](stack2d.WithExpectedThreads(p), stack2d.WithOpBuffer(opBufferCap))
	bh := bs.NewHandle()
	rb, err := relax.NewTwoDBackend[uint64](cfg)
	if err != nil {
		panic(err) // core.DefaultConfig is valid by construction
	}
	rh := rb.NewHandle()
	eng := stack2d.NewEngine[uint64](stack2d.WithExpectedThreads(p))
	eh := eng.NewHandle()
	ad := stack2d.NewAdaptive[uint64](stack2d.WithExpectedThreads(p))
	ah := ad.NewHandle()
	tq := twodqueue.MustNew[uint64](twodqueue.DefaultConfig(p))
	th := tq.NewHandle()
	ms := msqueue.New[uint64]()

	return []ledgerRow{
		{"treiber.push_pop_ns", "", pairs(tr.Push, tr.Pop), tr.Len, noClose},
		{"core.push_pop_ns", "core.allocs_per_pair", pairs(ch.Push, ch.Pop), cs.Len, noClose},
		{"stack2d.handle_push_pop_ns", "", pairs(ph.Push, ph.Pop), ps.Len, noClose},
		{"stack2d.pooled_push_pop_ns", "", pairs(pooled.Push, pooled.Pop), pooled.Len, noClose},
		// The buffered handle runs in bursts of a buffer's worth of pushes
		// then as many pops, so each burst publishes one combined batch
		// and refills the prefetch once.
		{"opbuffer.push_pop_ns", "", func(n int) int {
			fails := 0
			for done := 0; done < n; done += opBufferCap {
				for i := range opBufferCap {
					bh.Push(uint64(done + i))
				}
				for range opBufferCap {
					if _, ok := bh.Pop(); !ok {
						fails++
					}
				}
			}
			return fails
		}, func() int { bh.Flush(); return bs.Len() }, noClose},
		{"relax.push_pop_ns", "", pairs(rh.Push, rh.Pop), rb.Len, noClose},
		{"engine.push_pop_ns", "", pairs(eh.Push, eh.Pop), eng.Len, eng.Close},
		{"adapt.push_pop_ns", "", pairs(ah.Push, ah.Pop), ad.Len, ad.Close},
		{"twodqueue.enq_deq_ns", "twodqueue.allocs_per_pair", pairs(th.Enqueue, th.Dequeue), tq.Len, noClose},
		{"msqueue.enq_deq_ns", "", pairs(ms.Enqueue, ms.Dequeue), ms.Len, noClose},
	}
}

// ledger runs the rows round-robin, n pairs per sample, until budget
// nanoseconds have passed and every row has at least minSamples samples.
// It returns each row's median ns and allocations per pair, keyed by
// metric name, and records one span per sample.
func (b *bench) ledger(budget int64) (map[string]float64, round) {
	n, minSamples := b.cfg.ledgerPairs, 3
	rows := ledgerRows(b.cfg.procs)
	ns := make([][]float64, len(rows))
	allocs := make([][]float64, len(rows))
	ring := b.mainRing()
	start := now()
	top := ring.add(0, b.names.id("ledger"), start, start)
	var r round
	for rep := 0; rep < minSamples || now()-start < budget; rep++ {
		for i, row := range rows {
			m0 := readMem()
			t0 := now()
			r.failed += uint64(row.run(n))
			t1 := now()
			m := readMem().sub(m0)
			ns[i] = append(ns[i], float64(t1-t0)/float64(n))
			allocs[i] = append(allocs[i], float64(m.mallocs)/float64(n))
			ring.add(top, b.names.id("ledger "+row.metric), t0, t1)
			r.attempted += 2 * uint64(n)
		}
	}
	ring.set(top, start, now())
	out := map[string]float64{}
	for i, row := range rows {
		out[row.metric] = median(ns[i])
		if row.allocs != "" {
			out[row.allocs] = median(allocs[i])
		}
		// Every pair popped what it pushed, so each structure ends empty.
		r.failed += uint64(row.len())
		row.close()
	}
	return out, r
}
