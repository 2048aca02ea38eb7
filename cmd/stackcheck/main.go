// Command stackcheck runs the repository's correctness battery against a
// chosen algorithm outside the test harness — useful for soak testing on a
// target machine and for demonstrating the verification methodology:
//
//   - conservation: under a concurrent mixed workload, the multiset of
//     values recovered (pops + final drain) must equal the multiset pushed;
//   - k-bound: a concurrent run's interval history must respect the
//     configured k-out-of-order bound, up to each pop's overlap slack
//     (seqspec.KStackChecker);
//   - empty sanity: pops must never report empty while more than k items
//     are provably present.
//
// Usage:
//
//	stackcheck -alg 2d|k-segment|k-robin|random|random-c2|elimination|treiber \
//	           [-k 256] [-threads 8] [-ops 200000] [-rounds 3]
//
// Exit status 0 means every round passed.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"sync"

	"stack2d/internal/harness"
	"stack2d/internal/relax"
	"stack2d/internal/seqspec"
	"stack2d/internal/xrand"
)

func main() {
	var (
		alg     = flag.String("alg", "2d", "algorithm under test")
		k       = flag.Int64("k", 256, "relaxation budget for k-bounded algorithms")
		threads = flag.Int("threads", 8, "concurrent workers")
		ops     = flag.Int("ops", 200000, "operations per worker per round")
		rounds  = flag.Int("rounds", 3, "repetitions of the whole battery")
	)
	flag.Parse()

	algorithm, err := relax.ParseAlgorithm(*alg)
	if err == nil && !slices.Contains(relax.Figure2Algorithms(), algorithm) {
		err = fmt.Errorf("%v is not a Figure 2 algorithm", algorithm)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "stackcheck:", err)
		os.Exit(2)
	}
	var f harness.Factory
	kBound := int64(-1)
	if algorithm.KConfigurable() {
		f = harness.Figure1Factory(algorithm, *k, *threads)
		kBound = f.K
	} else {
		f = harness.Figure2Factory(algorithm, *threads)
		if algorithm == relax.TreiberStack || algorithm == relax.EliminationStack {
			kBound = 0
		}
	}

	fmt.Printf("checking %s (k=%v) with %d workers x %d ops x %d rounds\n",
		f.Name, kBound, *threads, *ops, *rounds)

	for round := 1; round <= *rounds; round++ {
		if err := checkConservation(f, *threads, *ops); err != nil {
			fmt.Fprintf(os.Stderr, "round %d: conservation FAILED: %v\n", round, err)
			os.Exit(1)
		}
		fmt.Printf("round %d: conservation ok\n", round)
		if kBound >= 0 {
			if err := checkKBound(f, kBound, *threads, *ops/4); err != nil {
				fmt.Fprintf(os.Stderr, "round %d: k-bound FAILED: %v\n", round, err)
				os.Exit(1)
			}
			fmt.Printf("round %d: k-bound ok (k=%d)\n", round, kBound)
		} else {
			fmt.Printf("round %d: k-bound skipped (%s is unbounded)\n", round, f.Name)
		}
	}
	fmt.Println("PASS")
}

// checkConservation drives a concurrent mixed workload and verifies the
// multiset of recovered values equals the multiset pushed.
func checkConservation(f harness.Factory, workers, opsPerW int) error {
	inst := f.New()
	popped := make([][]uint64, workers)
	pushed := make([]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wk := inst.NewWorker()
			rng := xrand.New(uint64(w) + 99)
			base := uint64(w+1) << 40
			n := uint64(0)
			for i := 0; i < opsPerW; i++ {
				if rng.Bool() {
					n++
					wk.Push(base | n)
				} else if v, ok := wk.Pop(); ok {
					popped[w] = append(popped[w], v)
				}
			}
			pushed[w] = n
		}(w)
	}
	wg.Wait()

	var totalPushed uint64
	for _, n := range pushed {
		totalPushed += n
	}
	seen := make(map[uint64]int)
	for w := range popped {
		for _, v := range popped[w] {
			seen[v]++
		}
	}
	drainWorker := inst.NewWorker()
	for {
		v, ok := drainWorker.Pop()
		if !ok {
			break
		}
		seen[v]++
	}
	if uint64(len(seen)) != totalPushed {
		return fmt.Errorf("recovered %d distinct values, pushed %d", len(seen), totalPushed)
	}
	for v, n := range seen {
		if n != 1 {
			return fmt.Errorf("value %#x recovered %d times", v, n)
		}
	}
	return nil
}

// checkKBound records a concurrent interval history (seqspec.Recorder: one
// logical-clock tick at each operation's invocation and one at its
// response) and validates it with seqspec.KStackChecker. The checker
// replays the history in invocation order and charges each pop only the
// operations whose intervals overlap it, so a preempted operation widens
// its own error bar instead of failing a linearizable stack: Treiber and
// elimination pass at k = 0 on any core count.
func checkKBound(f harness.Factory, k int64, workers, opsPerW int) error {
	inst := f.New()
	hist := seqspec.CollectRandomHistory(workers, opsPerW, func(int) seqspec.WorkerFuncs {
		wk := inst.NewWorker()
		return seqspec.WorkerFuncs{Push: wk.Push, Pop: wk.Pop}
	})
	rep, err := seqspec.KStackChecker{K: k}.Check(hist)
	if err != nil {
		return err
	}
	fmt.Printf("  max observed distance %d, max strain %d (bound %d; overlap slack up to %d)\n",
		rep.MaxDistance, rep.MaxStrain, k, rep.MaxSlack)
	return nil
}
