package core

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Latency sampling. One operation in latencySampleInterval is timed
// end-to-end (Begin to End) and recorded into a log2-bucketed histogram in
// the handle's OpStats. The buckets are monotone counters like every other
// field, so they flush through the same SharedCounters mirror, aggregate
// through the same prune-retired registry, and subtract cleanly between
// StatsSnapshots — which is what lets internal/adapt compute interval P50/
// P99 estimates at runtime without the harness's offline sampler.
const (
	// latencySampleInterval is the sampling stride: 1 operation in this many
	// is timed. A power of two so the hot-path check is a mask test. At this
	// stride the amortised cost of the two clock reads is well under a
	// nanosecond per operation.
	latencySampleInterval = 64

	// NumLatencyBuckets is the histogram size. Bucket i holds samples whose
	// duration in nanoseconds has bit-length i, i.e. [2^(i-1), 2^i) ns;
	// bucket 0 holds sub-nanosecond readings and the last bucket absorbs
	// everything from ~67 ms up (scheduler stalls included).
	NumLatencyBuckets = 28
)

// LatencyBucket maps a sampled duration to its histogram bucket.
func LatencyBucket(d time.Duration) int {
	ns := int64(d)
	if ns <= 0 {
		return 0
	}
	b := bits.Len64(uint64(ns))
	if b >= NumLatencyBuckets {
		b = NumLatencyBuckets - 1
	}
	return b
}

// latencyBucketBounds returns the duration range bucket i covers, used for
// within-bucket interpolation when estimating percentiles.
func latencyBucketBounds(i int) (lo, hi time.Duration) {
	if i <= 0 {
		return 0, 1
	}
	return time.Duration(int64(1) << (i - 1)), time.Duration(int64(1) << i)
}

// OpStats counts the work a Handle performed, supporting the step-
// complexity analysis the paper's full version develops: how many
// sub-stacks an operation inspects, how often CAS fails (contention), and
// how often the window has to move. Counters are handle-local and updated
// without atomics; read them from the owning goroutine only (or after it
// has quiesced). For cross-goroutine sampling use Kernel.StatsSnapshot,
// which reads the periodically flushed atomic copies instead.
type OpStats struct {
	Pushes    uint64 // completed Push operations
	Pops      uint64 // Pop operations returning a value
	EmptyPops uint64 // Pop operations reporting empty

	Probes       uint64 // sub-stack validations performed (all phases)
	RandomHops   uint64 // exploratory random hops taken
	CASFailures  uint64 // descriptor CAS failures (contention events)
	WindowRaises uint64 // successful Global += shift CASes by this handle
	WindowLowers uint64 // successful Global -= shift CASes by this handle
	Restarts     uint64 // searches restarted due to an observed Global change

	// SocketCAS attributes the CAS failures to the socket the failing
	// handle was pinned to (Handle.Pin, or the creation-order heuristic) —
	// the per-socket contention-pressure signal the adaptive controller
	// uses to tell the placement policy which socket asked for a widening
	// (see PressureSocket and DESIGN.md §7). The entries sum to
	// CASFailures.
	SocketCAS [MaxPlacementSockets]uint64

	// Latency is the log2-bucketed histogram of sampled operation
	// latencies (1 operation in latencySampleInterval is timed; see
	// LatencyBucket for the bucket layout). Estimate percentiles with
	// LatencyPercentile.
	Latency [NumLatencyBuckets]uint64
}

// LatencySamples returns how many operations were latency-sampled.
func (s OpStats) LatencySamples() uint64 {
	var n uint64
	for _, b := range s.Latency {
		n += b
	}
	return n
}

// NoLatencySample is the sentinel LatencyPercentile returns for an empty
// (all-zero) histogram. It is negative — no real sample can produce it —
// so consumers can distinguish "no data this interval" from a genuinely
// sub-nanosecond estimate, which the former zero return conflated with a
// bucket-0 reading. Gauges exported through internal/obs surface it as -1.
const NoLatencySample time.Duration = -1

// LatencyPercentile estimates the p-th percentile (0..100) of the sampled
// operation latency from the histogram, interpolating linearly within the
// winning bucket. It returns NoLatencySample when no samples were
// recorded; callers that gate on LatencySamples() > 0 (as the adaptive
// controller does) never see the sentinel. Log2 buckets bound the
// estimation error by a factor of two of the true sample value, which is
// far finer than the order-of-magnitude swings the latency-goal controller
// steers on.
func (s OpStats) LatencyPercentile(p float64) time.Duration {
	total := s.LatencySamples()
	if total == 0 {
		return NoLatencySample
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	rank := p / 100 * float64(total)
	var cum float64
	for i, b := range s.Latency {
		if b == 0 {
			continue
		}
		next := cum + float64(b)
		if rank <= next {
			lo, hi := latencyBucketBounds(i)
			frac := (rank - cum) / float64(b)
			return lo + time.Duration(frac*float64(hi-lo))
		}
		cum = next
	}
	_, hi := latencyBucketBounds(NumLatencyBuckets - 1)
	return hi
}

// Ops returns the total completed operations.
func (s OpStats) Ops() uint64 { return s.Pushes + s.Pops + s.EmptyPops }

// ProbesPerOp returns the mean number of sub-stack validations per
// operation — the empirical step count.
func (s OpStats) ProbesPerOp() float64 {
	ops := s.Ops()
	if ops == 0 {
		return 0
	}
	return float64(s.Probes) / float64(ops)
}

// CASFailuresPerOp returns the mean number of failed descriptor CASes per
// operation — the contention signal the adaptive controller steers on.
func (s OpStats) CASFailuresPerOp() float64 {
	ops := s.Ops()
	if ops == 0 {
		return 0
	}
	return float64(s.CASFailures) / float64(ops)
}

// Add accumulates other into s (for aggregating per-worker stats).
func (s *OpStats) Add(other OpStats) {
	s.Pushes += other.Pushes
	s.Pops += other.Pops
	s.EmptyPops += other.EmptyPops
	s.Probes += other.Probes
	s.RandomHops += other.RandomHops
	s.CASFailures += other.CASFailures
	s.WindowRaises += other.WindowRaises
	s.WindowLowers += other.WindowLowers
	s.Restarts += other.Restarts
	for i := range s.SocketCAS {
		s.SocketCAS[i] += other.SocketCAS[i]
	}
	for i := range s.Latency {
		s.Latency[i] += other.Latency[i]
	}
}

// Sub returns s - other field-wise, saturating at zero, for computing
// per-interval deltas between two snapshots (saturation guards against a
// handle resetting its counters between samples).
func (s OpStats) Sub(other OpStats) OpStats {
	sat := func(a, b uint64) uint64 {
		if a < b {
			return 0
		}
		return a - b
	}
	out := OpStats{
		Pushes:       sat(s.Pushes, other.Pushes),
		Pops:         sat(s.Pops, other.Pops),
		EmptyPops:    sat(s.EmptyPops, other.EmptyPops),
		Probes:       sat(s.Probes, other.Probes),
		RandomHops:   sat(s.RandomHops, other.RandomHops),
		CASFailures:  sat(s.CASFailures, other.CASFailures),
		WindowRaises: sat(s.WindowRaises, other.WindowRaises),
		WindowLowers: sat(s.WindowLowers, other.WindowLowers),
		Restarts:     sat(s.Restarts, other.Restarts),
	}
	for i := range out.SocketCAS {
		out.SocketCAS[i] = sat(s.SocketCAS[i], other.SocketCAS[i])
	}
	for i := range out.Latency {
		out.Latency[i] = sat(s.Latency[i], other.Latency[i])
	}
	return out
}

// statsFlushInterval is how many operations a handle completes between
// publications of its counters to the shared (atomic) copy. Snapshots are
// therefore at most this many operations per handle stale — far below the
// noise floor of any control interval — while the hot path pays only a
// local counter increment per operation.
const statsFlushInterval = 64

// SharedCounters is the atomically readable mirror of a handle's OpStats.
// Single writer (the owning goroutine, via flush); any reader.
//
// Two memory disciplines protect the mirror. A seqlock generation (gen,
// incremented to odd before a flush writes the fields and back to even
// after) lets Load return a cross-field-consistent snapshot: every field is
// individually atomic, but without the generation a reader interleaving a
// flush could combine a new Pushes with an old Pops — a torn snapshot that
// trips ratio consumers (CASFailuresPerOp, latency percentiles) even though
// no data race exists. And the struct's size is padded up to a multiple of
// the cache line: mirrors are allocated back to back by the handle
// registries (one per handle, the flush target every statsFlushInterval
// ops), so a size that is not line-aligned would let two handles' flush
// lines overlap and turn every 64-op flush into cross-core invalidation
// traffic — false sharing on exactly the slots the audit exists to keep
// private. TestSharedCountersPadded pins the size.
type SharedCounters struct {
	gen                                  atomic.Uint64
	pushes, pops, emptyPops              atomic.Uint64
	probes, randomHops, casFailures      atomic.Uint64
	windowRaises, windowLowers, restarts atomic.Uint64
	socketCAS                            [MaxPlacementSockets]atomic.Uint64
	latency                              [NumLatencyBuckets]atomic.Uint64
	_                                    [16]byte // pad to a cache-line multiple (384 B)
}

func (c *SharedCounters) Store(st OpStats) {
	c.gen.Add(1) // odd: flush in progress
	c.pushes.Store(st.Pushes)
	c.pops.Store(st.Pops)
	c.emptyPops.Store(st.EmptyPops)
	c.probes.Store(st.Probes)
	c.randomHops.Store(st.RandomHops)
	c.casFailures.Store(st.CASFailures)
	c.windowRaises.Store(st.WindowRaises)
	c.windowLowers.Store(st.WindowLowers)
	c.restarts.Store(st.Restarts)
	for i := range c.socketCAS {
		c.socketCAS[i].Store(st.SocketCAS[i])
	}
	for i := range c.latency {
		c.latency[i].Store(st.Latency[i])
	}
	c.gen.Add(1) // even: consistent
}

func (c *SharedCounters) Load() OpStats {
	for {
		g := c.gen.Load()
		if g&1 != 0 {
			// A flush is mid-write; it is a handful of plain stores, so
			// spinning to its end is cheaper than yielding.
			continue
		}
		out := OpStats{
			Pushes:       c.pushes.Load(),
			Pops:         c.pops.Load(),
			EmptyPops:    c.emptyPops.Load(),
			Probes:       c.probes.Load(),
			RandomHops:   c.randomHops.Load(),
			CASFailures:  c.casFailures.Load(),
			WindowRaises: c.windowRaises.Load(),
			WindowLowers: c.windowLowers.Load(),
			Restarts:     c.restarts.Load(),
		}
		for i := range out.SocketCAS {
			out.SocketCAS[i] = c.socketCAS[i].Load()
		}
		for i := range out.Latency {
			out.Latency[i] = c.latency[i].Load()
		}
		if c.gen.Load() == g {
			return out
		}
	}
}
