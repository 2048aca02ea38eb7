package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestReconfigureValidation(t *testing.T) {
	s := MustNew[int](Config{Width: 4, Depth: 8, Shift: 8, RandomHops: 1})
	if err := s.Reconfigure(Config{Width: 0, Depth: 8, Shift: 8}); err == nil {
		t.Fatal("Reconfigure accepted Width 0")
	}
	if err := s.Reconfigure(Config{Width: 4, Depth: 8, Shift: 16}); err == nil {
		t.Fatal("Reconfigure accepted Shift > Depth")
	}
	if got := s.Config(); got != (Config{Width: 4, Depth: 8, Shift: 8, RandomHops: 1}) {
		t.Fatalf("failed Reconfigure mutated config: %+v", got)
	}
}

// TestShrinkWarmHandoffSplice pins the warm-handoff mechanics in a
// quiescent shrink: stranded chains are spliced onto the least-loaded
// surviving sub-stacks (reproducing the argmin choice from the pre-shrink
// counts), the Global window advances exactly once in a batch — restoring
// push headroom; the retired funnel-migration re-pushed items through the
// window search, raising Global once per exhausted band (the k-spike),
// while a splice without the batched raise would defer those raises onto
// stalled client pushes — and the displacement accounting opens a non-zero
// budget.
func TestShrinkWarmHandoffSplice(t *testing.T) {
	s := MustNew[uint64](Config{Width: 4, Depth: 16, Shift: 16, RandomHops: 0})
	h := s.NewHandle()
	for i := uint64(0); i < 400; i++ {
		h.Push(i)
	}
	before := s.SubCounts()
	if err := s.SetWidth(2); err != nil {
		t.Fatal(err)
	}
	if got := s.Len(); got != 400 {
		t.Fatalf("Len = %d after shrink, want 400 (migration lost items)", got)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("invariants after shrink: %v", err)
	}
	// Replay the argmin policy on the recorded counts: dropped slots are
	// spliced in index order, each onto the currently least-loaded
	// survivor.
	want := []int64{before[0], before[1]}
	for _, stranded := range before[2:] {
		j := 0
		if want[1] < want[0] {
			j = 1
		}
		want[j] += stranded
	}
	after := s.SubCounts()
	if after[0] != want[0] || after[1] != want[1] {
		t.Fatalf("post-shrink loads %v, want %v (least-loaded splice of %v)", after, want, before)
	}
	if s.ShrinkDisplacementBound() <= 0 {
		t.Fatal("shrink migrated items but ShrinkDisplacementBound is zero")
	}
	// Push headroom was restored in one batched Global advance: the next
	// push needs zero window raises, and a pop still succeeds.
	raisesBefore := h.Stats().WindowRaises
	h.Push(1 << 40)
	if raises := h.Stats().WindowRaises - raisesBefore; raises != 0 {
		t.Fatalf("first post-shrink push needed %d window raises (push outage)", raises)
	}
	if _, ok := h.Pop(); !ok {
		t.Fatal("post-shrink pop failed")
	}
}

func TestReconfigureQuiescent(t *testing.T) {
	s := MustNew[int](Config{Width: 2, Depth: 4, Shift: 4, RandomHops: 0})
	h := s.NewHandle()
	const n = 1000
	for i := 0; i < n; i++ {
		h.Push(i)
	}
	steps := []Config{
		{Width: 16, Depth: 4, Shift: 4, RandomHops: 2},   // grow width
		{Width: 16, Depth: 64, Shift: 32, RandomHops: 2}, // deepen window
		{Width: 3, Depth: 64, Shift: 32, RandomHops: 2},  // shrink width (migration)
		{Width: 1, Depth: 8, Shift: 8, RandomHops: 0},    // degenerate to strict
		{Width: 8, Depth: 16, Shift: 16, RandomHops: 1},  // grow again
	}
	epoch := s.Epoch()
	for _, cfg := range steps {
		if err := s.Reconfigure(cfg); err != nil {
			t.Fatalf("Reconfigure(%+v): %v", cfg, err)
		}
		if got := s.Config(); got != cfg {
			t.Fatalf("Config() = %+v after Reconfigure(%+v)", got, cfg)
		}
		if got := s.Epoch(); got != epoch+1 {
			t.Fatalf("Epoch = %d, want %d", got, epoch+1)
		}
		epoch++
		if got := s.Len(); got != n {
			t.Fatalf("Len = %d after Reconfigure(%+v), want %d", got, cfg, n)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("invariants after Reconfigure(%+v): %v", cfg, err)
		}
	}
	// Reconfiguring to the current config is a no-op (same epoch).
	cur := s.Config()
	if err := s.Reconfigure(cur); err != nil {
		t.Fatal(err)
	}
	if got := s.Epoch(); got != epoch {
		t.Fatalf("no-op Reconfigure bumped epoch %d -> %d", epoch, got)
	}
	seen := make(map[int]bool, n)
	for _, v := range s.Drain() {
		if seen[v] {
			t.Fatalf("duplicate item %d after reconfigurations", v)
		}
		seen[v] = true
	}
	if len(seen) != n {
		t.Fatalf("drained %d distinct items, want %d", len(seen), n)
	}
}

// TestReconfigureStress hammers the stack from many goroutines while a
// dedicated goroutine cycles the geometry through grows, shrinks and
// depth/shift changes. Afterwards every pushed item must be accounted for
// exactly once across {popped} ∪ {remaining} — live reconfiguration may
// reorder items but can never lose or duplicate one.
func TestReconfigureStress(t *testing.T) {
	s := MustNew[uint64](Config{Width: 4, Depth: 8, Shift: 8, RandomHops: 1})

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

	popped := make([]map[uint64]int, workers)
	pushedCount := make([]uint64, workers)
	for i := 0; i < workers; i++ {
		popped[i] = make(map[uint64]int)
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			h := s.NewHandle()
			// Unique labels: worker id in the high bits.
			label := uint64(id+1) << 40
			for !stop.Load() {
				label++
				h.Push(label)
				pushedCount[id]++
				if v, ok := h.Pop(); ok {
					popped[id][v]++
				}
			}
		}(i)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for !stop.Load() {
			if err := s.Reconfigure(geometries[i%len(geometries)]); err != nil {
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

	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("invariants after stress: %v", err)
	}

	var total uint64
	for _, n := range pushedCount {
		total += n
	}
	seen := make(map[uint64]int, total)
	var poppedN uint64
	for _, m := range popped {
		for v, n := range m {
			seen[v] += n
			poppedN += uint64(n)
		}
	}
	remaining := s.Drain()
	for _, v := range remaining {
		seen[v]++
	}
	if got := poppedN + uint64(len(remaining)); got != total {
		t.Fatalf("pushed %d items but popped %d + remaining %d = %d", total, poppedN, len(remaining), got)
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("item %d seen %d times (lost or duplicated)", v, n)
		}
	}
	// The final geometry must be one of the cycled ones and self-consistent.
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if snap := s.StatsSnapshot(); snap.Ops() == 0 {
		t.Fatal("StatsSnapshot reported zero operations after a stress run")
	}
}

// TestStatsSnapshotTracksHandles verifies the central registry aggregates
// published handle counters without requiring owner-goroutine access.
func TestStatsSnapshotTracksHandles(t *testing.T) {
	s := MustNew[int](Config{Width: 4, Depth: 8, Shift: 8, RandomHops: 1})
	h1 := s.NewHandle()
	h2 := s.NewHandle()
	for i := 0; i < 10; i++ {
		h1.Push(i)
	}
	for i := 0; i < 4; i++ {
		h2.Pop()
	}
	// Below the flush interval nothing is published yet; force it.
	h1.FlushStats()
	h2.FlushStats()
	snap := s.StatsSnapshot()
	if snap.Pushes != 10 || snap.Pops != 4 {
		t.Fatalf("snapshot = %+v, want 10 pushes / 4 pops", snap)
	}
	// Deltas between snapshots saturate rather than underflow on reset.
	h1.ResetStats()
	if d := s.StatsSnapshot().Sub(snap); d.Pushes != 0 {
		t.Fatalf("delta after reset = %+v, want saturated zero pushes", d)
	}
}

// TestHandleRegistryPrunesAndRetiresStats guards the convenience-API path
// (sync.Pool of handles): abandoned handles must not grow the registry
// without bound, and their published counters must survive collection in
// the retired total.
func TestHandleRegistryPrunesAndRetiresStats(t *testing.T) {
	s := MustNew[int](Config{Width: 2, Depth: 8, Shift: 8, RandomHops: 1})
	for i := 0; i < 8; i++ {
		h := s.NewHandle()
		for j := 0; j < 10; j++ {
			h.Push(j)
		}
		h.FlushStats()
	}
	// All 8 handles are now unreferenced. Registration prunes collected
	// entries and GC cleanups fold their counters into the retired total;
	// both are asynchronous, so poll with a deadline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		s.NewHandle() // registering prunes dead entries
		s.hMu.Lock()
		entries := len(s.handles)
		s.hMu.Unlock()
		snap := s.StatsSnapshot()
		if entries <= 3 && snap.Pushes == 80 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("registry still holds %d entries, snapshot %+v (want <= 3 entries, 80 pushes)", entries, snap)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGrownSubStackJoinsAtFloor: a sub-stack added by width growth joins at
// the window floor, so the grown geometry's Theorem 1 bound holds from the
// first operation after the publish. Starting it empty at height zero let a
// producer's pushes pile up in the fresh slot, far below the floor, while a
// consumer's pops kept serving the survivors' older items: on this
// sequential trace the distance grew by one per round. The second half
// checks that the base sinks with the floor: once drained, the grown slots
// take their share of a refill.
func TestGrownSubStackJoinsAtFloor(t *testing.T) {
	s := MustNew[int](Config{Width: 2, Depth: 4, Shift: 4})
	producer, consumer := s.NewHandle(), s.NewHandle()
	present := map[int]bool{}
	next := 0
	push := func() {
		producer.Push(next)
		present[next] = true
		next++
	}
	for i := 0; i < 1000; i++ {
		push()
	}
	grown := Config{Width: 4, Depth: 4, Shift: 4}
	if err := s.Reconfigure(grown); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 200; round++ {
		push()
		v, ok := consumer.Pop()
		if !ok {
			t.Fatalf("round %d: pop reported empty", round)
		}
		delete(present, v)
		// Labels increase in push order: the distance of v is the number of
		// residents pushed after it.
		var dist int64
		for u := range present {
			if u > v {
				dist++
			}
		}
		if dist > grown.K() {
			t.Fatalf("round %d: popped %d at distance %d > k=%d (sub-counts %v, Global %d)",
				round, v, dist, grown.K(), s.SubCounts(), s.Global())
		}
	}

	if got := len(s.Drain()); got != len(present) {
		t.Fatalf("Drain returned %d items, want %d", got, len(present))
	}
	for i := 0; i < grown.Width*int(grown.Depth); i++ {
		producer.Push(i)
	}
	for i, c := range s.SubCounts() {
		if c != grown.Depth {
			t.Fatalf("refill after drain: sub-stack %d holds %d, want %d in every slot: %v (Global %d)",
				i, c, grown.Depth, s.SubCounts(), s.Global())
		}
	}
}
