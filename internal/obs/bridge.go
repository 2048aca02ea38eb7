package obs

import (
	"fmt"
	"sync"
	"time"

	"stack2d/internal/adapt"
	"stack2d/internal/core"
	"stack2d/internal/engine"
)

// Source is what a structure must expose to be bridged into a Registry:
// the aggregated operation counters and the active geometry. *core.Stack
// and *twodqueue.Queue both satisfy it — the same pair of methods the
// adaptive controller's Reconfigurable already requires, so anything the
// controller can steer, the metrics plane can export.
type Source interface {
	StatsSnapshot() core.OpStats
	Config() core.Config
}

// ShrinkReporter is the optional extension a Source may implement to also
// export its cumulative shrink-migration displacement bound (both 2D
// structures do).
type ShrinkReporter interface {
	ShrinkDisplacementBound() int64
}

// minRefresh is how long a structView serves the cached snapshot before
// re-aggregating. A scrape storm therefore costs at most one StatsSnapshot
// per structure per window — the same aggregation the controller already
// runs per tick — and the interval gauges (throughput, P50/P99) are deltas
// over at least this long, keeping them out of the shot-noise regime.
const minRefresh = 250 * time.Millisecond

// structView caches a Source's snapshot pair (current and previous) so
// every metric of one structure reads one consistent snapshot, and rate
// gauges have a well-defined interval. prev starts equal to cur, so the
// first interval reads as empty (zero rates, no samples) rather than as a
// division-hazard or an all-history average.
type structView struct {
	src Source
	now func() time.Time

	mu           sync.Mutex
	cur, prev    core.OpStats
	curT, prev2T time.Time
	delta        core.OpStats
	interval     time.Duration
}

func newStructView(src Source, now func() time.Time) *structView {
	if now == nil {
		now = time.Now
	}
	v := &structView{src: src, now: now}
	t := now()
	v.cur = src.StatsSnapshot()
	v.prev = v.cur
	v.curT, v.prev2T = t, t
	return v
}

// refreshLocked rolls the snapshot window forward when the cache is stale;
// v.mu held.
func (v *structView) refreshLocked() {
	t := v.now()
	if t.Sub(v.curT) < minRefresh {
		return
	}
	v.prev, v.prev2T = v.cur, v.curT
	v.cur, v.curT = v.src.StatsSnapshot(), t
	v.delta = v.cur.Sub(v.prev)
	v.interval = v.curT.Sub(v.prev2T)
}

// total reads a monotone counter off the current snapshot.
func (v *structView) total(f func(core.OpStats) float64) func() float64 {
	return func() float64 {
		v.mu.Lock()
		defer v.mu.Unlock()
		v.refreshLocked()
		return f(v.cur)
	}
}

// rate reads an interval gauge off the last completed snapshot delta.
func (v *structView) rate(f func(d core.OpStats, interval time.Duration) float64) func() float64 {
	return func() float64 {
		v.mu.Lock()
		defer v.mu.Unlock()
		v.refreshLocked()
		return f(v.delta, v.interval)
	}
}

// RegisterStructure exports a structure's full metric vocabulary (names.go)
// under the given structure label — counters and the latency histogram from
// its aggregated OpStats, interval gauges from consecutive snapshot deltas,
// geometry gauges (including the realised Theorem-1 k) from its live
// Config, and the shrink displacement bound when src reports one. now is
// the clock used for staleness and rate intervals; nil means time.Now
// (tests inject a fake to step the cache deterministically).
func RegisterStructure(reg *Registry, structure string, src Source, now func() time.Time) {
	v := newStructView(src, now)
	name := func(suffix string) string { return MetricName(structure, suffix) }

	reg.Counter(name(MPushesTotal), "Completed push/enqueue operations.",
		v.total(func(s core.OpStats) float64 { return float64(s.Pushes) }))
	reg.Counter(name(MPopsTotal), "Pop/dequeue operations that returned a value.",
		v.total(func(s core.OpStats) float64 { return float64(s.Pops) }))
	reg.Counter(name(MEmptyPopsTotal), "Pop/dequeue operations that reported empty.",
		v.total(func(s core.OpStats) float64 { return float64(s.EmptyPops) }))
	reg.Counter(name(MProbesTotal), "Sub-structure validations performed (step-count signal).",
		v.total(func(s core.OpStats) float64 { return float64(s.Probes) }))
	reg.Counter(name(MRandomHopsTotal), "Exploratory random hops taken.",
		v.total(func(s core.OpStats) float64 { return float64(s.RandomHops) }))
	reg.Counter(name(MCASFailuresTotal), "Descriptor CAS failures (contention events).",
		v.total(func(s core.OpStats) float64 { return float64(s.CASFailures) }))
	reg.Counter(name(MWindowRaisesTotal), "Successful window raises (Global += shift).",
		v.total(func(s core.OpStats) float64 { return float64(s.WindowRaises) }))
	reg.Counter(name(MWindowLowersTotal), "Successful window lowers (Global -= shift).",
		v.total(func(s core.OpStats) float64 { return float64(s.WindowLowers) }))
	reg.Counter(name(MRestartsTotal), "Searches restarted by an observed window move.",
		v.total(func(s core.OpStats) float64 { return float64(s.Restarts) }))
	for i := 0; i < core.MaxPlacementSockets; i++ {
		i := i
		reg.LabeledCounter(name(MSocketCASTotal), fmt.Sprintf(`socket="%d"`, i),
			"CAS failures attributed to the handle's pinned socket.",
			v.total(func(s core.OpStats) float64 { return float64(s.SocketCAS[i]) }))
	}

	reg.Histogram(name(MLatencyNs), "Sampled operation latency, log2 ns buckets (1-in-64 sampling).",
		func() []uint64 {
			v.mu.Lock()
			defer v.mu.Unlock()
			v.refreshLocked()
			out := make([]uint64, core.NumLatencyBuckets)
			copy(out, v.cur.Latency[:])
			return out
		})

	reg.Gauge(name(MThroughputOps), "Operations per second over the last snapshot interval.",
		v.rate(func(d core.OpStats, iv time.Duration) float64 {
			if iv <= 0 {
				return 0
			}
			return float64(d.Ops()) / iv.Seconds()
		}))
	reg.Gauge(name(MCASPerOp), "CAS failures per operation over the last interval (contention).",
		v.rate(func(d core.OpStats, _ time.Duration) float64 { return d.CASFailuresPerOp() }))
	reg.Gauge(name(MEnergyPerOp), "Window moves plus probes per operation over the last interval.",
		v.rate(func(d core.OpStats, _ time.Duration) float64 {
			ops := d.Ops()
			if ops == 0 {
				return 0
			}
			return float64(d.WindowRaises+d.WindowLowers+d.Probes) / float64(ops)
		}))
	percentile := func(p float64) func() float64 {
		return v.rate(func(d core.OpStats, _ time.Duration) float64 {
			est := d.LatencyPercentile(p)
			if est == core.NoLatencySample {
				return -1
			}
			return float64(est)
		})
	}
	reg.Gauge(name(MLatencyP50Ns), "Sampled P50 latency (ns) over the last interval; -1 when unsampled.",
		percentile(50))
	reg.Gauge(name(MLatencyP99Ns), "Sampled P99 latency (ns) over the last interval; -1 when unsampled.",
		percentile(99))

	reg.Gauge(name(MGeometryWidth), "Active geometry: sub-structure count.",
		func() float64 { return float64(src.Config().Width) })
	reg.Gauge(name(MGeometryDepth), "Active geometry: window height.",
		func() float64 { return float64(src.Config().Depth) })
	reg.Gauge(name(MGeometryShift), "Active geometry: window step.",
		func() float64 { return float64(src.Config().Shift) })
	reg.Gauge(name(MRealisedK), "Theorem-1 relaxation bound of the active geometry.",
		func() float64 { return float64(src.Config().K()) })
	if sr, ok := src.(ShrinkReporter); ok {
		reg.Gauge(name(MShrinkDispBound), "Cumulative displacement bound of shrink migrations.",
			func() float64 { return float64(sr.ShrinkDisplacementBound()) })
	}
}

// RegisterRing exports the tracer's own meta-metrics (events emitted and
// overwritten) under the fixed "obs" structure label.
func RegisterRing(reg *Registry, ring *Ring) {
	reg.Counter(MetricName("obs", MEventsEmittedTotal), "Events emitted into the tracer ring.",
		func() float64 { return float64(ring.Emitted()) })
	reg.Counter(MetricName("obs", MEventsDroppedTotal), "Events overwritten before a drain saw them.",
		func() float64 { return float64(ring.Dropped()) })
}

// StructTracer adapts a Ring to core.Observer: structural transition events
// from a stack or queue (both speak core.StructEvent) are translated into
// ring Events under the given structure label. It runs on the reconfiguring
// goroutine with the structure's reconfiguration lock held, so it only
// copies fields and stores a pointer — no locks, no I/O.
type StructTracer struct {
	Structure string
	Ring      *Ring
}

// ObserveStruct implements core.Observer.
func (t StructTracer) ObserveStruct(ev core.StructEvent) {
	kind := KindReconfig
	switch ev.Kind {
	case core.StructShrinkHandoff:
		kind = KindShrinkHandoff
	case core.StructPlacement:
		kind = KindPlacement
	}
	t.Ring.Emit(Event{
		Kind:      kind,
		Structure: t.Structure,
		Width:     ev.Width,
		Depth:     ev.Depth,
		Shift:     ev.Shift,
		K:         (2*ev.Depth + ev.Shift) * int64(ev.Width-1),
		Epoch:     ev.Epoch,

		OldWidth:     ev.OldWidth,
		Requester:    ev.Requester,
		Stranded:     ev.Stranded,
		Displacement: ev.Displacement,
		Sockets:      ev.Sockets,
	})
}

// SwapTracer adapts a Ring to engine.Switcher's swap hook: one completed
// backend exchange becomes one KindBackendSwap event. Install with
// sw.SetOnSwap(tracer.ObserveSwap); it runs under the switcher's swap
// lock — same contract as the other tracers.
type SwapTracer struct {
	Structure string
	Ring      *Ring
}

// ObserveSwap records one completed backend swap.
func (t SwapTracer) ObserveSwap(rec engine.SwapRecord) {
	t.Ring.Emit(Event{
		Kind:      KindBackendSwap,
		Structure: t.Structure,
		K:         rec.ToK,

		FromBackend:  rec.From,
		ToBackend:    rec.To,
		Reason:       rec.Reason,
		Migrated:     rec.Migrated,
		Displacement: rec.Displacement,
	})
}

// SwapReporter is the switcher surface the metrics plane exports —
// satisfied by *engine.Switcher for any element type.
type SwapReporter interface {
	SwapCount() int
	SwapDisplacementBound() int64
}

// RegisterSwitcher exports an engine switcher's swap counters under the
// given structure label, alongside the structure metrics its
// StatsSnapshot already feeds through RegisterStructure.
func RegisterSwitcher(reg *Registry, structure string, sr SwapReporter) {
	reg.Counter(MetricName(structure, MBackendSwapsTotal),
		"Completed backend swaps on the engine switcher.",
		func() float64 { return float64(sr.SwapCount()) })
	reg.Gauge(MetricName(structure, MSwapDispBound),
		"Cumulative checker-allowance displacement added by swap migrations.",
		func() float64 { return float64(sr.SwapDisplacementBound()) })
}

// TickTracer adapts a Ring to adapt.Observer: one controller decision
// becomes one KindTick event carrying the TickRecord verbatim. It runs on
// the controller goroutine with the controller lock held — same contract
// as StructTracer.
type TickTracer struct {
	Structure string
	Ring      *Ring
}

// ObserveTick implements adapt.Observer.
func (t TickTracer) ObserveTick(goal adapt.Goal, rec adapt.TickRecord) {
	t.Ring.Emit(Event{
		Kind:      KindTick,
		Structure: t.Structure,
		Width:     rec.Width,
		Depth:     rec.Depth,
		Shift:     rec.Shift,
		K:         rec.K,

		Tick:           rec.Tick,
		Goal:           goal.String(),
		Action:         rec.Action,
		Ops:            rec.Ops,
		Throughput:     rec.Throughput,
		CASPerOp:       rec.CASPerOp,
		MovesPerOp:     rec.MovesPerOp,
		ProbesPerOp:    rec.ProbesPerOp,
		EnergyPerOp:    rec.EnergyPerOp,
		LatencySamples: rec.LatencySamples,
		P50Ns:          int64(rec.P50),
		P99Ns:          int64(rec.P99),
		PressureSocket: rec.PressureSocket,
	})
}
