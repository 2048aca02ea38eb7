package harness

import (
	"fmt"
	"runtime"
	"time"

	"stack2d/internal/quality"
)

// Workload describes one experiment run, mirroring the paper's setup.
type Workload struct {
	// Workers is P, the number of concurrent operation streams.
	Workers int
	// Duration is the timed phase length (the paper runs 5 s).
	Duration time.Duration
	// PushRatio is the probability an operation is a Push; the paper uses
	// 0.5 ("operations selected uniformly at random from Pop and Push").
	PushRatio float64
	// Prefill is the initial population (the paper: 32,768), present to
	// avoid measuring empty-stack returns.
	Prefill int
	// Seed makes runs reproducible; distinct workers derive distinct
	// streams from it.
	Seed uint64
	// PinThreads locks each worker goroutine to an OS thread, the closest
	// portable analogue of the paper's one-thread-per-core pinning.
	PinThreads bool
	// ThinkSpin inserts a computational load of this many ALU spin
	// iterations between operations. The paper sets it to zero ("to
	// simulate high contention, we put no computational load between
	// operations"); the full version explores non-zero loads, which dilute
	// contention.
	ThinkSpin int
}

// think burns the configured computational load; the result is returned so
// the compiler cannot elide the loop.
func think(n int, acc uint64) uint64 {
	for i := 0; i < n; i++ {
		acc = acc*6364136223846793005 + 1442695040888963407
	}
	return acc
}

// Validate reports whether the workload is runnable.
func (w Workload) Validate() error {
	switch {
	case w.Workers < 1:
		return fmt.Errorf("harness: Workers must be >= 1, got %d", w.Workers)
	case w.Duration <= 0:
		return fmt.Errorf("harness: Duration must be positive, got %v", w.Duration)
	case w.PushRatio < 0 || w.PushRatio > 1:
		return fmt.Errorf("harness: PushRatio must be in [0,1], got %g", w.PushRatio)
	case w.Prefill < 0:
		return fmt.Errorf("harness: Prefill must be >= 0, got %d", w.Prefill)
	case w.ThinkSpin < 0:
		return fmt.Errorf("harness: ThinkSpin must be >= 0, got %d", w.ThinkSpin)
	}
	return nil
}

// Result summarises one run.
type Result struct {
	Ops        uint64        // completed operations (pushes + pops)
	Pushes     uint64        // completed pushes
	Pops       uint64        // pops returning a value
	EmptyPops  uint64        // pops reporting empty
	Elapsed    time.Duration // measured wall time of the timed phase
	Throughput float64       // Ops per second
	Quality    quality.Stats // zero unless measured (RunQuality)
}

// Run executes one throughput run: prefill, then P workers hammer the stack
// for the configured duration.
func Run(f Factory, w Workload) (Result, error) {
	return runFactory(f, w, false, false)
}

// RunQuality executes one run with the LIFO error-distance oracle
// attached. Oracle maintenance serialises briefly on a mutex per
// operation, so throughput from a quality run underestimates the
// unobserved system; the paper likewise measures the two in dedicated
// runs.
func RunQuality(f Factory, w Workload) (Result, error) {
	return runFactory(f, w, true, false)
}

// RunQueueQuality is RunQuality with the FIFO oracle, for the 2D-Queue
// extension experiments (Push = enqueue, Pop = dequeue). Enqueues are
// recorded at invocation, as in RunPhasedQueue (see runPhased).
func RunQueueQuality(f Factory, w Workload) (Result, error) {
	return runFactory(f, w, true, true)
}

// runFactory is Run, RunQuality and RunQueueQuality: a single phase of the
// shared load generator over a fresh instance of f.
func runFactory(f Factory, w Workload, measure, fifo bool) (Result, error) {
	if err := w.Validate(); err != nil {
		return Result{}, err
	}
	inst := f.New()
	mkWorker := func(int) (Worker, func()) { return inst.NewWorker(), func() {} }
	if w.PinThreads {
		// mkWorker runs on the goroutine that will use the worker.
		mkWorker = func(int) (Worker, func()) {
			runtime.LockOSThread()
			return inst.NewWorker(), runtime.UnlockOSThread
		}
	}
	phase := Phase{Name: f.Name, Duration: w.Duration, Workers: w.Workers, PushRatio: w.PushRatio, ThinkSpin: w.ThinkSpin}
	out, err := runPhased(mkWorker, fifo, []Phase{phase},
		PhasedWorkload{MaxWorkers: w.Workers, Prefill: w.Prefill, Seed: w.Seed, Quality: measure})
	if err != nil {
		return Result{}, err
	}
	p := out.Phases[0]
	return Result{
		Ops: p.Ops, Pushes: p.Pushes, Pops: p.Pops, EmptyPops: p.EmptyPops,
		Elapsed: p.Elapsed, Throughput: p.Throughput, Quality: out.Quality,
	}, nil
}
