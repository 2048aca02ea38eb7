package twodqueue

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stack2d/internal/adapt"
	"stack2d/internal/core"
	"stack2d/internal/obs"
	"stack2d/internal/seqspec"
)

func TestReconfigureValidation(t *testing.T) {
	q := MustNew[int](Config{Width: 4, Depth: 8, Shift: 8, RandomHops: 1})
	if err := q.Reconfigure(Config{Width: 0, Depth: 8, Shift: 8}); err == nil {
		t.Fatal("Reconfigure accepted Width 0")
	}
	if err := q.Reconfigure(Config{Width: 4, Depth: 8, Shift: 16}); err == nil {
		t.Fatal("Reconfigure accepted Shift > Depth")
	}
	if got := q.Config(); got != (Config{Width: 4, Depth: 8, Shift: 8, RandomHops: 1}) {
		t.Fatalf("failed Reconfigure mutated config: %+v", got)
	}
}

func TestReconfigureQuiescent(t *testing.T) {
	q := MustNew[int](Config{Width: 2, Depth: 4, Shift: 4, RandomHops: 0})
	h := q.NewHandle()
	const n = 1000
	for i := 0; i < n; i++ {
		h.Enqueue(i)
	}
	steps := []Config{
		{Width: 16, Depth: 4, Shift: 4, RandomHops: 2},   // grow width
		{Width: 16, Depth: 64, Shift: 32, RandomHops: 2}, // deepen window
		{Width: 3, Depth: 64, Shift: 32, RandomHops: 2},  // shrink width (migration)
		{Width: 1, Depth: 8, Shift: 8, RandomHops: 0},    // degenerate to strict
		{Width: 8, Depth: 16, Shift: 16, RandomHops: 1},  // grow again
	}
	epoch := q.Epoch()
	for _, cfg := range steps {
		if err := q.Reconfigure(cfg); err != nil {
			t.Fatalf("Reconfigure(%+v): %v", cfg, err)
		}
		if got := q.Config(); got != cfg {
			t.Fatalf("Config() = %+v after Reconfigure(%+v)", got, cfg)
		}
		if got := q.Epoch(); got != epoch+1 {
			t.Fatalf("Epoch = %d, want %d", got, epoch+1)
		}
		epoch++
		if got := q.Len(); got != n {
			t.Fatalf("Len = %d after Reconfigure(%+v), want %d", got, cfg, n)
		}
	}
	// Reconfiguring to the current config is a no-op (same epoch).
	cur := q.Config()
	if err := q.Reconfigure(cur); err != nil {
		t.Fatal(err)
	}
	if got := q.Epoch(); got != epoch {
		t.Fatalf("no-op Reconfigure bumped epoch %d -> %d", epoch, got)
	}
	seen := make(map[int]bool, n)
	for _, v := range q.Drain() {
		if seen[v] {
			t.Fatalf("duplicate item %d after reconfigurations", v)
		}
		seen[v] = true
	}
	if len(seen) != n {
		t.Fatalf("drained %d distinct items, want %d", len(seen), n)
	}
}

func TestSetWindowAndSetWidth(t *testing.T) {
	q := MustNew[int](Config{Width: 2, Depth: 8, Shift: 8, RandomHops: 1})
	if err := q.SetWindow(32, 16); err != nil {
		t.Fatal(err)
	}
	if cfg := q.Config(); cfg.Depth != 32 || cfg.Shift != 16 || cfg.Width != 2 {
		t.Fatalf("SetWindow gave %+v", cfg)
	}
	if err := q.SetWidth(6); err != nil {
		t.Fatal(err)
	}
	if cfg := q.Config(); cfg.Width != 6 || cfg.Depth != 32 {
		t.Fatalf("SetWidth gave %+v", cfg)
	}
}

// TestGrownSubQueueJoinsAtWindowFloor guards the counter-initialisation
// rule: after the windows have advanced far from zero, a sub-queue added by
// width growth must not be enqueue-valid for the whole distance back to
// zero — it joins at the window floor and absorbs at most ~depth enqueues
// before the window must move like everywhere else.
func TestGrownSubQueueJoinsAtWindowFloor(t *testing.T) {
	cfg := Config{Width: 2, Depth: 8, Shift: 8, RandomHops: 0}
	q := MustNew[uint64](cfg)
	h := q.NewHandle()
	for v := uint64(0); v < 4000; v++ {
		h.Enqueue(v)
	}
	if q.GlobalEnq() < 1000 {
		t.Fatalf("enqueue window did not advance: %d", q.GlobalEnq())
	}
	before := q.GlobalEnq()
	if err := q.SetWidth(3); err != nil {
		t.Fatal(err)
	}
	// The fresh sub-queue may absorb at most the open window headroom
	// before forcing a window raise; enqueue that many plus one and verify
	// the ceiling moved (a zero-initialised counter would swallow all of
	// them without any window movement).
	for v := uint64(0); v < uint64(cfg.Depth)+1; v++ {
		h.Enqueue(1 << 40 & v)
	}
	grew := q.GlobalEnq() > before
	third := q.SubLens()[2]
	if !grew && third > int(cfg.Depth) {
		t.Fatalf("fresh sub-queue absorbed %d items without a window move (joined below the floor)", third)
	}
}

// TestGrownSubQueueKeepsFIFOOrder: a width growth on a long queue must
// keep the sequential FIFO bound of the handover, K_old + K_new. A grown
// sub-queue's dequeue counter starts where its enqueue counter does, so
// its fresh items become dequeue-valid only when the dequeue window
// reaches them, not ahead of the thousands of older items.
func TestGrownSubQueueKeepsFIFOOrder(t *testing.T) {
	start := Config{Width: 2, Depth: 8, Shift: 8, RandomHops: 1}
	grown := Config{Width: 3, Depth: 8, Shift: 8, RandomHops: 1}
	q := MustNew[uint64](start)
	h := q.NewHandle()
	var ops []seqspec.Op
	next := uint64(1)
	enq := func() {
		ops = append(ops, seqspec.Op{Kind: seqspec.OpPush, Value: next})
		h.Enqueue(next)
		next++
	}
	deq := func() bool {
		v, ok := h.Dequeue()
		ops = append(ops, seqspec.Op{Kind: seqspec.OpPop, Value: v, Empty: !ok})
		return ok
	}
	for i := 0; i < 4000; i++ {
		enq()
	}
	if err := q.Reconfigure(grown); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 900; i++ {
		if i%3 == 2 {
			deq()
		} else {
			enq()
		}
	}
	for deq() {
	}
	bound := start.K() + grown.K()
	if maxDist, err := seqspec.CheckKOutOfOrderFIFO(ops, int(bound)); err != nil {
		t.Fatalf("FIFO bound %d violated after growth: %v (max distance %d)", bound, err, maxDist)
	}
}

// TestReconfigureStress hammers the queue from many goroutines while a
// dedicated goroutine cycles the geometry through grows, shrinks and
// depth/shift changes. Afterwards every enqueued item must be accounted for
// exactly once across {dequeued} ∪ {remaining} — live reconfiguration may
// reorder items but can never lose or duplicate one.
func TestReconfigureStress(t *testing.T) {
	q := MustNew[uint64](Config{Width: 4, Depth: 8, Shift: 8, RandomHops: 1})

	const workers = 8
	duration := 200 * time.Millisecond
	if testing.Short() {
		duration = 50 * time.Millisecond
	}

	geometries := []Config{
		{Width: 2, Depth: 4, Shift: 4, RandomHops: 1},
		{Width: 32, Depth: 4, Shift: 2, RandomHops: 2},
		{Width: 32, Depth: 128, Shift: 128, RandomHops: 2},
		{Width: 3, Depth: 16, Shift: 8, RandomHops: 0},
		{Width: 1, Depth: 64, Shift: 64, RandomHops: 0},
		{Width: 12, Depth: 32, Shift: 16, RandomHops: 2},
	}

	var stop atomic.Bool
	var wg sync.WaitGroup

	dequeued := make([]map[uint64]int, workers)
	enqueuedCount := make([]uint64, workers)
	for i := 0; i < workers; i++ {
		dequeued[i] = make(map[uint64]int)
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			h := q.NewHandle()
			// Unique labels: worker id in the high bits.
			label := uint64(id+1) << 40
			for !stop.Load() {
				label++
				h.Enqueue(label)
				enqueuedCount[id]++
				if v, ok := h.Dequeue(); ok {
					dequeued[id][v]++
				}
			}
		}(i)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for !stop.Load() {
			if err := q.Reconfigure(geometries[i%len(geometries)]); err != nil {
				t.Errorf("Reconfigure: %v", err)
				return
			}
			i++
			time.Sleep(2 * time.Millisecond)
		}
	}()

	time.Sleep(duration)
	stop.Store(true)
	wg.Wait()

	var total uint64
	for _, n := range enqueuedCount {
		total += n
	}
	seen := make(map[uint64]int, total)
	var deqN uint64
	for _, m := range dequeued {
		for v, n := range m {
			seen[v] += n
			deqN += uint64(n)
		}
	}
	remaining := q.Drain()
	for _, v := range remaining {
		seen[v]++
	}
	if got := deqN + uint64(len(remaining)); got != total {
		t.Fatalf("enqueued %d items but dequeued %d + remaining %d = %d", total, deqN, len(remaining), got)
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("item %d seen %d times (lost or duplicated)", v, n)
		}
	}
	if snap := q.StatsSnapshot(); snap.Ops() == 0 {
		t.Fatal("StatsSnapshot reported zero operations after a stress run")
	}
}

// TestFIFOBoundAcrossReconfig is the seqspec bound check under live
// geometry changes: a sequential interleaving of enqueues, dequeues and
// non-migrating reconfigurations (depth/shift swaps, width growth) must
// never dequeue an item more than 2·max-K-over-geometries out of FIFO
// order — during a handover items placed under the old windows drain under
// the new ones, so the regimes' displacements add to at most K_old + K_new
// (see Reconfigure), which 2·maxK covers for every step.
func TestFIFOBoundAcrossReconfig(t *testing.T) {
	start := Config{Width: 2, Depth: 4, Shift: 4, RandomHops: 1}
	steps := []Config{
		{Width: 4, Depth: 4, Shift: 2, RandomHops: 1},   // grow width
		{Width: 4, Depth: 16, Shift: 16, RandomHops: 2}, // deepen
		{Width: 8, Depth: 16, Shift: 16, RandomHops: 2}, // grow width again
		{Width: 8, Depth: 8, Shift: 8, RandomHops: 0},   // shallower window
	}
	maxK := start.K()
	for _, c := range steps {
		if k := c.K(); k > maxK {
			maxK = k
		}
	}
	maxK *= 2

	q := MustNew[uint64](start)
	h := q.NewHandle()
	var ops []seqspec.Op
	next := uint64(1)
	enq := func() {
		ops = append(ops, seqspec.Op{Kind: seqspec.OpPush, Value: next})
		h.Enqueue(next)
		next++
	}
	deq := func() {
		v, ok := h.Dequeue()
		ops = append(ops, seqspec.Op{Kind: seqspec.OpPop, Value: v, Empty: !ok})
	}

	for i := 0; i < 200; i++ {
		enq()
	}
	for si, cfg := range steps {
		for i := 0; i < 300; i++ {
			if i%3 == 0 {
				deq()
			} else {
				enq()
			}
		}
		if err := q.Reconfigure(cfg); err != nil {
			t.Fatalf("step %d: %v", si, err)
		}
	}
	for {
		v, ok := h.Dequeue()
		ops = append(ops, seqspec.Op{Kind: seqspec.OpPop, Value: v, Empty: !ok})
		if !ok {
			break
		}
	}

	maxDist, err := seqspec.CheckKOutOfOrderFIFO(ops, int(maxK))
	if err != nil {
		t.Fatalf("FIFO bound violated across reconfigurations: %v", err)
	}
	t.Logf("maxK=%d maxObservedDist=%d", maxK, maxDist)
}

// TestShrinkMigrationBound covers the one reconfiguration that legitimately
// exceeds the steady-state bound: a width shrink re-enqueues the stranded
// items at the back of the live window, displacing each by at most the
// population resident at the shrink. The distances must stay within
// max-K + that population, and every item must survive exactly once.
func TestShrinkMigrationBound(t *testing.T) {
	start := Config{Width: 8, Depth: 8, Shift: 8, RandomHops: 1}
	narrow := Config{Width: 2, Depth: 8, Shift: 8, RandomHops: 1}
	maxK := start.K()

	q := MustNew[uint64](start)
	h := q.NewHandle()
	var ops []seqspec.Op
	next := uint64(1)
	for i := 0; i < 500; i++ {
		ops = append(ops, seqspec.Op{Kind: seqspec.OpPush, Value: next})
		h.Enqueue(next)
		next++
	}
	popAtShrink := q.Len()
	if err := q.Reconfigure(narrow); err != nil {
		t.Fatal(err)
	}
	if got := q.Len(); got != popAtShrink {
		t.Fatalf("Len = %d after shrink, want %d (migration lost items)", got, popAtShrink)
	}
	for {
		v, ok := h.Dequeue()
		ops = append(ops, seqspec.Op{Kind: seqspec.OpPop, Value: v, Empty: !ok})
		if !ok {
			break
		}
	}

	dists, err := seqspec.MeasureDistancesFIFO(ops)
	if err != nil {
		t.Fatalf("trace invalid (item lost or duplicated): %v", err)
	}
	bound := int(maxK) + popAtShrink
	for _, d := range dists {
		if d > bound {
			t.Fatalf("dequeue distance %d exceeds shrink bound %d (maxK %d + population %d)",
				d, bound, maxK, popAtShrink)
		}
	}
}

// TestShrinkWarmHandoffKillsSpike pins what the warm handoff buys over the
// retired funnel migration (which re-enqueued every stranded item through
// one handle's window search): the migration never moves the dequeue
// ceiling and advances the enqueue ceiling exactly once, batched — the
// funnel raised GlobalEnq once per exhausted band, the k-spike of
// DESIGN.md §5 — the migrated population is spread evenly over the
// survivors, client enqueues are immediately admissible afterwards, and
// the realised post-shrink FIFO distances stay decisively under the
// pre-handoff tolerance of maxK + whole population. The run is fully
// deterministic (sequential, seeded RNG), so the margins are stable.
func TestShrinkWarmHandoffKillsSpike(t *testing.T) {
	start := Config{Width: 8, Depth: 8, Shift: 8, RandomHops: 1}
	narrow := Config{Width: 2, Depth: 8, Shift: 8, RandomHops: 1}
	maxK := start.K()

	q := MustNew[uint64](start)
	h := q.NewHandle()
	var ops []seqspec.Op
	next := uint64(1)
	for i := 0; i < 500; i++ {
		ops = append(ops, seqspec.Op{Kind: seqspec.OpPush, Value: next})
		h.Enqueue(next)
		next++
	}
	resident := q.Len()
	deqBefore := q.GlobalDeq()
	if err := q.Reconfigure(narrow); err != nil {
		t.Fatal(err)
	}
	if q.GlobalDeq() != deqBefore {
		t.Fatalf("warm handoff moved the dequeue window %d->%d (the funnel's spike mechanism)",
			deqBefore, q.GlobalDeq())
	}
	if got := q.Len(); got != resident {
		t.Fatalf("Len = %d after shrink, want %d (migration lost items)", got, resident)
	}
	lens := q.SubLens()
	if diff := lens[0] - lens[1]; diff < -1 || diff > 1 {
		t.Fatalf("least-loaded placement left unbalanced survivors: %v", lens)
	}
	// The enqueue window must have been reopened in one batched advance:
	// an immediate client enqueue completes with zero coverage-and-raise
	// rounds (the funnel, and a handoff that bumps counters without the
	// advance, would stall it through ~migrated/(shift·width) raises).
	raisesBefore := h.Stats().WindowRaises
	ops = append(ops, seqspec.Op{Kind: seqspec.OpPush, Value: next})
	h.Enqueue(next)
	next++
	if raises := h.Stats().WindowRaises - raisesBefore; raises != 0 {
		t.Fatalf("first post-shrink enqueue needed %d window raises (enqueue outage)", raises)
	}

	for {
		v, ok := h.Dequeue()
		ops = append(ops, seqspec.Op{Kind: seqspec.OpPop, Value: v, Empty: !ok})
		if !ok {
			break
		}
	}
	dists, err := seqspec.MeasureDistancesFIFO(ops)
	if err != nil {
		t.Fatalf("trace invalid (item lost or duplicated): %v", err)
	}
	maxDist := 0
	for _, d := range dists {
		if d > maxDist {
			maxDist = d
		}
	}
	// Invariant 2's tolerance before the handoff: maxK + the whole resident
	// population. The handoff must realise well under it — the remaining
	// displacement is the unavoidable one-time cost of appending the
	// stranded backlog behind the live items (no append-based migration can
	// beat the resident population), not window skew piled on top.
	oldTolerance := int(maxK) + resident
	if maxDist > resident {
		t.Fatalf("max distance %d exceeds the resident population %d", maxDist, resident)
	}
	if 10*maxDist > 7*oldTolerance {
		t.Fatalf("max distance %d not decisively under the pre-handoff tolerance %d", maxDist, oldTolerance)
	}
	t.Logf("maxK=%d resident=%d maxDist=%d (pre-handoff tolerance %d)", maxK, resident, maxDist, oldTolerance)
}

// TestStatsSnapshotTracksHandles verifies the central registry aggregates
// published handle counters without requiring owner-goroutine access.
func TestStatsSnapshotTracksHandles(t *testing.T) {
	q := MustNew[int](Config{Width: 4, Depth: 8, Shift: 8, RandomHops: 1})
	h1 := q.NewHandle()
	h2 := q.NewHandle()
	for i := 0; i < 10; i++ {
		h1.Enqueue(i)
	}
	for i := 0; i < 4; i++ {
		h2.Dequeue()
	}
	// Below the flush interval nothing is published yet; force it.
	h1.FlushStats()
	h2.FlushStats()
	snap := q.StatsSnapshot()
	if snap.Pushes != 10 || snap.Pops != 4 {
		t.Fatalf("snapshot = %+v, want 10 pushes / 4 pops", snap)
	}
	// Deltas between snapshots saturate rather than underflow on reset.
	h1.ResetStats()
	if d := q.StatsSnapshot().Sub(snap); d.Pushes != 0 {
		t.Fatalf("delta after reset = %+v, want saturated zero pushes", d)
	}
}

// TestMigrationTrafficHiddenFromStats: the shrink path's internal handle
// must not leak its re-enqueues into the controller's signals.
func TestMigrationTrafficHiddenFromStats(t *testing.T) {
	q := MustNew[int](Config{Width: 8, Depth: 4, Shift: 4, RandomHops: 0})
	h := q.NewHandle()
	for i := 0; i < 200; i++ {
		h.Enqueue(i)
	}
	h.FlushStats()
	before := q.StatsSnapshot()
	if err := q.SetWidth(2); err != nil {
		t.Fatal(err)
	}
	after := q.StatsSnapshot()
	if d := after.Sub(before); d.Pushes != 0 {
		t.Fatalf("shrink migration leaked %d pushes into StatsSnapshot", d.Pushes)
	}
	if got := q.Len(); got != 200 {
		t.Fatalf("Len = %d after shrink, want 200", got)
	}
}

// TestHandleRegistryPrunesAndRetiresStats: abandoned handles' published
// counters must survive collection and registry pruning in the retired
// total, exactly. (The registry is kernel code; core's TestKernel also
// checks, for both structures, that pruning bounds its size.)
func TestHandleRegistryPrunesAndRetiresStats(t *testing.T) {
	q := MustNew[int](Config{Width: 2, Depth: 8, Shift: 8, RandomHops: 1})
	for i := 0; i < 8; i++ {
		h := q.NewHandle()
		for j := 0; j < 10; j++ {
			h.Enqueue(j)
		}
		h.FlushStats()
	}
	// All 8 handles are now unreferenced; each registration prunes the
	// collected ones, and the snapshot must read exactly 80 throughout.
	for i := 0; i < 20; i++ {
		runtime.GC()
		q.NewHandle()
		if snap := q.StatsSnapshot(); snap.Pushes != 80 {
			t.Fatalf("round %d: snapshot %+v, want exactly 80 pushes", i, snap)
		}
	}
}

// The queue is steered and observed directly: it satisfies the
// controller's and the metrics bridge's interfaces with no adapter.
var (
	_ adapt.Reconfigurable = (*Queue[int])(nil)
	_ adapt.SocketAware    = (*Queue[int])(nil)
	_ obs.Source           = (*Queue[int])(nil)
	_ obs.ShrinkReporter   = (*Queue[int])(nil)
)

// TestSteerableRoundTrip checks the queue as the controller steers it,
// through adapt.Reconfigurable with no adapter: Config is core.Config,
// Reconfigure reaches the geometry, invalid geometries are refused, and
// stats flow back.
func TestSteerableRoundTrip(t *testing.T) {
	start := Config{Width: 3, Depth: 16, Shift: 8, RandomHops: 2}
	var s adapt.Reconfigurable = MustNew[int](start)
	q := s.(*Queue[int])
	if got := s.Config(); got != start {
		t.Fatalf("Config = %+v, want %+v", got, start)
	}
	next := core.Config{Width: 6, Depth: 32, Shift: 32, RandomHops: 1}
	if err := s.Reconfigure(next); err != nil {
		t.Fatal(err)
	}
	if got := q.Config(); got != next {
		t.Fatalf("queue config after Reconfigure = %+v", got)
	}
	if err := s.Reconfigure(core.Config{Width: 0}); err == nil {
		t.Fatal("invalid geometry accepted")
	}
	h := q.NewHandle()
	h.Enqueue(1)
	h.FlushStats()
	if s.StatsSnapshot().Pushes != 1 {
		t.Fatal("stats did not flow back")
	}
}
