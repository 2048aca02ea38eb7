package relax

import (
	"fmt"
	"sync"
	"testing"

	"stack2d/internal/core"
)

// TestCatalogueAudit is the catalogue's completeness gate: every algorithm
// in AllAlgorithms has a default backend, the backend agrees with the
// catalogue about its identity and its semantics budget, and the String
// spelling round-trips through ParseAlgorithm. Adding an Algorithm
// constant without wiring a backend (or vice versa) fails here.
func TestCatalogueAudit(t *testing.T) {
	if len(AllAlgorithms()) != 10 {
		t.Fatalf("catalogue has %d entries, want 10", len(AllAlgorithms()))
	}
	for _, a := range AllAlgorithms() {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			got, err := ParseAlgorithm(a.String())
			if err != nil || got != a {
				t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", a.String(), got, err, a)
			}
			b, err := NewDefaultBackend[int](a, 4)
			if err != nil {
				t.Fatalf("NewDefaultBackend: %v", err)
			}
			if b.Algorithm() != a {
				t.Errorf("backend.Algorithm() = %v", b.Algorithm())
			}
			if bounded := b.KBound() >= 0; bounded != a.KBounded() {
				t.Errorf("KBound() = %d but KBounded() = %v", b.KBound(), a.KBounded())
			}
			if a.KConfigurable() && b.KBound() < 0 {
				t.Errorf("k-configurable algorithm with unbounded backend")
			}
		})
	}
	if _, err := ParseAlgorithm("no-such-structure"); err == nil {
		t.Error("ParseAlgorithm accepted an unknown name")
	}
	if _, err := NewDefaultBackend[int](Algorithm(99), 4); err == nil {
		t.Error("NewDefaultBackend accepted an unknown algorithm")
	}
}

// TestBackendRoundTrip pushes and pops through every default backend and
// checks conservation: nothing lost, nothing invented, Len and Drain agree.
func TestBackendRoundTrip(t *testing.T) {
	const n = 200
	for _, a := range AllAlgorithms() {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			b, err := NewDefaultBackend[int](a, 2)
			if err != nil {
				t.Fatal(err)
			}
			h := b.NewHandle()
			for i := 0; i < n; i++ {
				h.Push(i)
			}
			if got := b.Len(); got != n {
				t.Fatalf("Len = %d after %d pushes", got, n)
			}
			seen := make(map[int]bool)
			for i := 0; i < n/2; i++ {
				v, ok := h.Pop()
				if !ok {
					t.Fatalf("pop %d reported empty", i)
				}
				if v < 0 || v >= n || seen[v] {
					t.Fatalf("pop returned %d (dup or out of range)", v)
				}
				seen[v] = true
			}
			for _, v := range b.Drain() {
				if seen[v] {
					t.Fatalf("Drain returned already-popped %d", v)
				}
				seen[v] = true
			}
			if len(seen) != n {
				t.Fatalf("recovered %d of %d items", len(seen), n)
			}
			if b.Len() != 0 {
				t.Fatalf("Len = %d after Drain", b.Len())
			}
			if _, ok := h.Pop(); ok {
				t.Fatal("pop on drained backend succeeded")
			}
		})
	}
}

// TestBackendStatsSnapshot checks the adapter counter plumbing: outcomes
// (pushes, pops, empty pops) land in StatsSnapshot for every backend, both
// mid-stream via the periodic flush and exactly after an explicit Flush.
func TestBackendStatsSnapshot(t *testing.T) {
	const n = 300 // > backendFlushInterval so the periodic path runs too
	for _, a := range AllAlgorithms() {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			b, err := NewDefaultBackend[int](a, 2)
			if err != nil {
				t.Fatal(err)
			}
			h := b.NewHandle()
			for i := 0; i < n; i++ {
				h.Push(i)
			}
			for i := 0; i < n; i++ {
				if _, ok := h.Pop(); !ok {
					t.Fatalf("pop %d reported empty", i)
				}
			}
			h.Pop() // one empty pop
			h.Flush()
			st := b.StatsSnapshot()
			if st.Pushes != n || st.Pops != n || st.EmptyPops != 1 {
				t.Fatalf("snapshot = %+v, want %d/%d/1", st, n, n)
			}
		})
	}
}

// TestBackendStatsSnapshotConcurrent hammers snapshot-while-operating on a
// couple of representative backends; run with -race this pins the registry
// scheme (handle-local counters, atomic mirrors) as data-race-free.
func TestBackendStatsSnapshotConcurrent(t *testing.T) {
	for _, a := range []Algorithm{TwoDStack, EliminationStack, TreiberStack, MSQueue} {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			b, err := NewDefaultBackend[int](a, 4)
			if err != nil {
				t.Fatal(err)
			}
			var workers, sampler sync.WaitGroup
			stop := make(chan struct{})
			for w := 0; w < 4; w++ {
				workers.Add(1)
				go func() {
					defer workers.Done()
					h := b.NewHandle()
					for i := 0; i < 2000; i++ {
						h.Push(i)
						h.Pop()
					}
					h.Flush()
				}()
			}
			sampler.Add(1)
			go func() {
				defer sampler.Done()
				for {
					select {
					case <-stop:
						return
					default:
						b.StatsSnapshot()
					}
				}
			}()
			workers.Wait()
			close(stop)
			sampler.Wait()
			st := b.StatsSnapshot()
			if st.Pushes != 4*2000 {
				t.Fatalf("pushes = %d, want %d", st.Pushes, 4*2000)
			}
		})
	}
}

// TestBackendMirrorSnapshotConsistency is the regression for the mirror
// seqlock (core.SharedCounters.Load/Store): every snapshot taken while
// handles flush must be cross-field consistent per mirror. Workers run
// push-then-pop pairs and flush after every operation, so a consistent
// mirror always shows Pops <= Pushes with the gap at most one per handle;
// the old per-field loads could pair a stale Pushes with a fresh Pops
// (Pops > Pushes) or drift by a whole flush interval. Covers both registry
// sides: the 2D backend reads core.Stack's own registry, Treiber the
// adapters' statsRegistry.
func TestBackendMirrorSnapshotConsistency(t *testing.T) {
	for _, a := range []Algorithm{TwoDStack, TreiberStack} {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			const nWorkers, pairs = 4, 3000
			b, err := NewDefaultBackend[int](a, nWorkers)
			if err != nil {
				t.Fatal(err)
			}
			var workers sync.WaitGroup
			stop := make(chan struct{})
			for w := 0; w < nWorkers; w++ {
				workers.Add(1)
				go func() {
					defer workers.Done()
					h := b.NewHandle()
					for i := 0; i < pairs; i++ {
						h.Push(i)
						h.Flush() // mid-pair: mirror shows Pushes == Pops+1
						h.Pop()
						h.Flush()
					}
				}()
			}
			var torn error
			done := make(chan struct{})
			go func() {
				defer close(done)
				for {
					select {
					case <-stop:
						return
					default:
					}
					st := b.StatsSnapshot()
					if st.Pops > st.Pushes || st.Pushes-st.Pops > nWorkers {
						torn = fmt.Errorf("torn snapshot: Pushes=%d Pops=%d (gap must be in [0,%d])",
							st.Pushes, st.Pops, nWorkers)
						return
					}
				}
			}()
			workers.Wait()
			close(stop)
			<-done
			if torn != nil {
				t.Fatal(torn)
			}
			st := b.StatsSnapshot()
			if st.Pushes != nWorkers*pairs || st.Pops != nWorkers*pairs {
				t.Fatalf("final snapshot %d/%d, want %d/%d", st.Pushes, st.Pops, nWorkers*pairs, nWorkers*pairs)
			}
		})
	}
}

// TestTwoDBackendIsReconfigurable pins that the 2D adapter exposes the
// geometry controller's interface rather than hiding it: Config,
// Reconfigure and the displacement bound all pass through.
func TestTwoDBackendIsReconfigurable(t *testing.T) {
	b, err := NewTwoDBackend[int](core.Config{Width: 4, Depth: 8, Shift: 8, RandomHops: 2})
	if err != nil {
		t.Fatal(err)
	}
	r, ok := b.(interface {
		Config() core.Config
		Reconfigure(core.Config) error
		ShrinkDisplacementBound() int64
	})
	if !ok {
		t.Fatal("2D backend does not expose reconfiguration")
	}
	if got := r.Config().Width; got != 4 {
		t.Fatalf("Config().Width = %d", got)
	}
	before := b.KBound()
	if err := r.Reconfigure(core.Config{Width: 2, Depth: 8, Shift: 8, RandomHops: 2}); err != nil {
		t.Fatal(err)
	}
	if b.KBound() >= before {
		t.Fatalf("KBound did not shrink with width: %d -> %d", before, b.KBound())
	}
}

// TestBackendKBoundMatchesStructure cross-checks the budget arithmetic the
// adapters report against the structure-level formulas.
func TestBackendKBoundMatchesStructure(t *testing.T) {
	td, err := NewTwoDBackend[int](TwoDConfigForK(300, 4))
	if err != nil {
		t.Fatal(err)
	}
	if want := TwoDConfigForK(300, 4).K(); td.KBound() != want {
		t.Errorf("2D KBound = %d, want %d", td.KBound(), want)
	}
	ks, err := NewKSegmentBackend[int](KSegmentConfigForK(17))
	if err != nil {
		t.Fatal(err)
	}
	if ks.KBound() != 17 {
		t.Errorf("k-segment KBound = %d, want 17", ks.KBound())
	}
	kr, err := NewMultiBackend[int](KRobinConfigForK(256, 4), 4)
	if err != nil {
		t.Fatal(err)
	}
	if kr.Algorithm() != KRobin {
		t.Errorf("k-robin backend algorithm = %v", kr.Algorithm())
	}
	if want := KRobinBound(KRobinConfigForK(256, 4).Width, 4); kr.KBound() != want {
		t.Errorf("k-robin KBound = %d, want %d", kr.KBound(), want)
	}
}

// TestFigure2KMatchesHarness pins the Figure 2 budget that
// harness.Figure2Factory and NewDefaultBackend share (EXPERIMENTS.md).
func TestFigure2KMatchesHarness(t *testing.T) {
	if Figure2K != 1024 {
		t.Fatalf("Figure2K = %d, want 1024 (EXPERIMENTS.md)", Figure2K)
	}
}

// TestZooSignalCountersFlow checks the SetStats wiring end to end for a
// contended backend: internal signals (probes) reach the snapshot.
func TestZooSignalCountersFlow(t *testing.T) {
	b, err := NewDefaultBackend[int](KRobin, 2)
	if err != nil {
		t.Fatal(err)
	}
	h := b.NewHandle()
	for i := 0; i < 100; i++ {
		h.Push(i)
	}
	for i := 0; i < 100; i++ {
		h.Pop()
	}
	h.Flush()
	if st := b.StatsSnapshot(); st.Probes == 0 {
		t.Fatalf("no probes recorded through the adapter: %+v", st)
	}
}
