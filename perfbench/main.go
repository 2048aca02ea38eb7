// Command perfbench is the repository's benchmark. It drives the public
// stack2d API from one process with P = GOMAXPROCS goroutines through one
// of three closed-loop workloads (stack-mixed, taskpool-buffered,
// queue-mixed), checks that every value put in comes out exactly once,
// and prints every metric by name and unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced;
// with --trace 1 they are the per-layer ones: counter deltas one layer
// down, the layer ledger, and the tracing overhead. See README.md for the
// workloads, the metrics and which layer metric should move which
// end-to-end metric. The command exits 1 when a correctness check fails.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload stack-mixed --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// config is one run's settings; the flags set the first four, defaults
// set the rest (tests shrink them).
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool

	procs        int           // P: worker goroutines
	prefill      int           // items put in before the mixed workloads start
	totalOps     int           // calls per mixed round, over all workers
	oracleOps    int           // calls per worker in a mixed oracle pass
	mixedPasses  int           // oracle passes of a mixed workload
	poolPasses   int           // oracle passes of the taskpool, each a whole tree
	treeSize     uint64        // tasks in the taskpool tree
	minRounds    int           // rounds per phase, however long they take
	ledgerPairs  int           // push+pop pairs per ledger sample
	stallTimeout time.Duration // taskpool: no progress for this long aborts the round
	spanDir      string        // where traced runs write their spans
	wrap         func(ops) ops // test hook: wraps every worker handle
}

func defaultConfig() config {
	return config{
		procs:        runtime.GOMAXPROCS(0),
		prefill:      32768,
		totalOps:     1 << 22,
		oracleOps:    1 << 17,
		mixedPasses:  32, // with oracleOps, the whole pattern once
		poolPasses:   3,
		treeSize:     2391484, // a complete ternary tree of depth 13 has as many tasks
		minRounds:    5,
		ledgerPairs:  1 << 15,
		stallTimeout: 10 * time.Second,
		spanDir:      filepath.Join(".bench_build", "perfbench"),
	}
}

// metric is one named, united value of the result line.
type metric struct {
	name, unit string
	value      float64
	note       string // printed on the report line only
}

func main() {
	c := defaultConfig()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&c.workload, "workload", "", "workload name: stack-mixed, taskpool-buffered or queue-mixed")
	fs.Uint64Var(&c.seed, "seed", 1, "seed of the generated inputs")
	secs := fs.Int("seconds", 10, "seconds of measurement")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	c.seconds, c.trace = time.Duration(*secs)*time.Second, *trace == 1
	os.Exit(run(c, os.Stdout))
}

// run executes one benchmark run and returns the exit code: 0 when every
// check passed, 1 when one failed, 2 when the run could not start.
func run(c config, stdout io.Writer) int {
	b, err := newBench(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	stamp := b.stamp()
	line, _ := json.Marshal(stamp) // strings and numbers always marshal
	fmt.Fprintf(out, "# stamp %s\n", line)

	var ms []metric
	var total round
	if c.trace {
		ms, total, err = b.traced(stamp)
	} else {
		ms, total = b.endToEnd()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintf(out, "# %-28s %g of %d calls\n", "failed_op_ratio", ratio(float64(total.failed), float64(total.attempted)), total.attempted)
	res := map[string]any{}
	for _, m := range ms {
		fmt.Fprintf(out, "# %-28s %-14.6g %-10s %s\n", m.name, m.value, m.unit, m.note)
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			m.value = 0
		}
		res[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	correct := total.failed == 0
	line, _ = json.Marshal(map[string]any{ // NaN and Inf were replaced above
		"correct":   correct,
		"attempted": max(total.attempted, 1),
		"failed":    total.failed,
		"metrics":   res,
	})
	fmt.Fprintf(out, "%s\n", line)
	if !correct {
		return 1
	}
	return 0
}

func newBench(c config) (*bench, error) {
	b := &bench{cfg: c}
	found := false
	for _, w := range workloads {
		if w.name == c.workload {
			b.wl, found = w, true
		}
	}
	if !found {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", c.workload, strings.Join(names, ", "))
	}
	if c.procs < 1 {
		return nil, errors.New("need at least one worker")
	}
	labels := 1
	if b.wl.pool {
		b.tree = tree{seed: c.seed, size: c.treeSize}
		labels = int(c.treeSize)
	} else {
		low := 0
		for g := range c.procs {
			pat, l := pattern(c.seed, g)
			b.pats = append(b.pats, pat)
			low += l
		}
		// Every empty pop counts as a failure only because the population
		// provably stays above the calls that can be in flight.
		if c.prefill+low <= c.procs {
			return nil, fmt.Errorf("prefill %d cannot cover the patterns' dips (%d) and %d workers", c.prefill, low, c.procs)
		}
		if c.oracleOps > b.perWorker() || c.oracleOps%blockLen != 0 {
			return nil, errors.New("the oracle pass must be whole blocks and no longer than a round")
		}
		labels = c.prefill + c.procs*b.perWorker()
	}
	for g := range c.procs + 1 {
		b.takers = append(b.takers, newLabelSet(labels))
		b.lat = append(b.lat, nil)
		if c.trace {
			b.rings = append(b.rings, newSpanRing(g, 1<<14))
		}
	}
	b.expected = newLabelSet(labels)
	return b, nil
}

// perWorker is each worker's share of a mixed round, in whole blocks.
func (b *bench) perWorker() int {
	return max(1, b.cfg.totalOps/b.cfg.procs/blockLen) * blockLen
}

// stamp identifies the run: inputs, host and structure.
func (b *bench) stamp() map[string]any {
	return map[string]any{
		"workload":   b.wl.name,
		"seed":       b.cfg.seed,
		"trace":      b.cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workers":    b.cfg.procs,
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"geometry":   b.wl.public(b.cfg.procs, b.wl.bufCap).geometry(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// round runs one round of the workload on a structure from mk. Mixed
// rounds take successive stretches of the patterns.
func (b *bench) round(mk func(int, int) structure, traced bool) round {
	if b.wl.pool {
		return b.poolRound(mk, traced, nil)
	}
	from := b.rounds * b.perWorker() % patternLen
	b.rounds++
	return b.mixedRound(mk, traced, from, b.perWorker(), nil)
}

// add accumulates another phase's call counts into t.
func (t *round) add(r round) {
	t.attempted += r.attempted
	t.failed += r.failed
}

// endToEnd measures the end-to-end metrics: for the configured seconds,
// untraced rounds through the public API, each on a fresh structure, then
// a fixed number of oracle passes over the same inputs. Each metric is
// the median over rounds (or passes), so a burst of load from outside the
// process moves it less than it moves a single round. The passes are
// deterministic for a seed, and their number does not depend on the
// host's speed, so neither does the rank error.
func (b *bench) endToEnd() ([]metric, round) {
	var total round
	var opsPerS, cpuNs, p50, p99, allocs, bytes, setup, errMean, errMax []float64
	samples, pops := 0, uint64(0)
	start := now()
	for n := 0; n < b.cfg.minRounds || now()-start < int64(b.cfg.seconds); n++ {
		r := b.round(b.wl.public, false)
		total.add(r)
		ops := float64(r.ops)
		opsPerS = append(opsPerS, ops/r.wall.Seconds())
		cpuNs = append(cpuNs, float64(r.cpu)/ops)
		p50 = append(p50, percentile(r.lat, 50))
		p99 = append(p99, percentile(r.lat, 99))
		samples += len(r.lat)
		allocs = append(allocs, float64(r.mem.mallocs)/ops)
		bytes = append(bytes, float64(r.mem.bytes)/ops)
		setup = append(setup, r.setup.Seconds())
	}
	rss := maxRSSMB()
	passes := b.cfg.mixedPasses
	if b.wl.pool {
		passes = b.cfg.poolPasses
	}
	for pass := range passes {
		q, or := b.rankErrors(pass)
		total.add(or)
		errMean = append(errMean, q.Mean())
		errMax = append(errMax, float64(q.Max))
		pops += q.Count
	}
	rounds := len(opsPerS)
	latNote := fmt.Sprintf("median of %d rounds, %d samples per round", rounds, samples/rounds)
	perRound := fmt.Sprintf("median of %d rounds", rounds)
	errNote := fmt.Sprintf("median of %d oracle passes, %d pops each", passes, pops/uint64(max(1, passes)))
	return []metric{
		{"ops_per_s", "1/s", median(opsPerS), perRound},
		{"cpu_ns_per_op", "ns", median(cpuNs), perRound},
		{"latency_p50_ns", "ns", median(p50), latNote},
		{"latency_p99_ns", "ns", median(p99), latNote},
		{"allocs_per_op", "count", median(allocs), perRound},
		{"alloc_bytes_per_op", "B", median(bytes), perRound},
		{"max_rss_mb", "MB", rss, "peak over set-up and rounds"},
		{"rank_error_mean", "count", median(errMean), errNote},
		{"rank_error_max", "count", median(errMax), errNote},
		{"setup_s", "s", median(setup), perRound},
	}, total
}

// traced measures the per-layer metrics. Half the budget runs public-API
// rounds, alternately untraced and traced, for the tracing overhead; a
// fifth runs the workload one layer down for counter deltas; the rest is
// the layer ledger. Spans are written out at the end.
func (b *bench) traced(stamp map[string]any) ([]metric, round, error) {
	var total round
	budget := int64(b.cfg.seconds)
	minRounds := max(1, b.cfg.minRounds/2)

	var plain, tracedOps []float64
	start := now()
	for n := 0; n < 2*minRounds || now()-start < budget/2; n++ {
		r := b.round(b.wl.public, n%2 == 1)
		total.add(r)
		if n%2 == 1 {
			tracedOps = append(tracedOps, float64(r.ops)/r.wall.Seconds())
		} else {
			plain = append(plain, float64(r.ops)/r.wall.Seconds())
		}
	}

	var low round
	var ops, workerNs float64
	start = now()
	for n := 0; n < minRounds || now()-start < budget/5; n++ {
		r := b.round(b.wl.lower, false)
		total.add(r)
		low.counters.Add(r.counters)
		low.mem.numGC += r.mem.numGC
		low.mem.pauseNs += r.mem.pauseNs
		low.tasks += r.tasks
		low.idlePops += r.idlePops
		low.idleNs += r.idleNs
		ops += float64(r.ops)
		workerNs += float64(r.wall) * float64(b.cfg.procs)
	}

	led, lr := b.ledger(budget - budget/2 - budget/5)
	total.add(lr)

	st := low.counters
	mops := ops / 1e6
	var coreVals, queueVals, bufVals [6]float64 // zero where the workload bypasses the layer
	perOp := func(n uint64) float64 { return ratio(float64(n), float64(st.Ops())) }
	layer := []float64{
		perOp(st.Probes), perOp(st.RandomHops), perOp(st.CASFailures), perOp(st.Restarts),
		perOp(st.WindowRaises + st.WindowLowers), ratio(float64(st.Ops()), float64(st.Probes)),
	}
	if b.wl.lowerLayer == "core" {
		copy(coreVals[:], layer)
	} else {
		copy(queueVals[:], layer)
	}
	if b.wl.bufCap > 0 {
		bufVals[0] = ratio(float64(st.Pushes+st.Pops), ops)
		bufVals[1] = ratio(float64(low.idlePops), float64(low.tasks))
		bufVals[2] = ratio(float64(low.idleNs), workerNs)
	}
	lowNote := fmt.Sprintf("%s run one layer down, %.3g Mops", b.wl.lowerLayer, mops)
	ledNote := "ledger, 1 goroutine, median"
	ms := []metric{
		{"core.push_pop_ns", "ns", led["core.push_pop_ns"], ledNote},
		{"core.allocs_per_pair", "count", led["core.allocs_per_pair"], ledNote},
		{"core.probes_per_op", "count", coreVals[0], lowNote},
		{"core.random_hops_per_op", "count", coreVals[1], lowNote},
		{"core.cas_failures_per_op", "count", coreVals[2], lowNote},
		{"core.restarts_per_op", "count", coreVals[3], lowNote},
		{"core.window_moves_per_op", "count", coreVals[4], lowNote},
		{"core.useful_probe_ratio", "ratio", coreVals[5], lowNote},
		{"stack2d.handle_push_pop_ns", "ns", led["stack2d.handle_push_pop_ns"], ledNote},
		{"stack2d.pooled_push_pop_ns", "ns", led["stack2d.pooled_push_pop_ns"], ledNote},
		{"opbuffer.push_pop_ns", "ns", led["opbuffer.push_pop_ns"], ledNote + ", bursts of the buffer size"},
		{"opbuffer.publish_ratio", "ratio", bufVals[0], lowNote},
		{"opbuffer.idle_pops_per_task", "count", bufVals[1], lowNote},
		{"opbuffer.idle_ns_share", "ratio", bufVals[2], lowNote},
		{"twodqueue.enq_deq_ns", "ns", led["twodqueue.enq_deq_ns"], ledNote},
		{"twodqueue.allocs_per_pair", "count", led["twodqueue.allocs_per_pair"], ledNote},
		{"twodqueue.probes_per_op", "count", queueVals[0], lowNote},
		{"twodqueue.cas_failures_per_op", "count", queueVals[2], lowNote},
		{"twodqueue.window_moves_per_op", "count", queueVals[4], lowNote},
		{"gc.cycles_per_mop", "count", ratio(float64(low.mem.numGC), mops), lowNote},
		{"gc.pause_ns_per_mop", "ns", ratio(float64(low.mem.pauseNs), mops), lowNote},
		{"treiber.push_pop_ns", "ns", led["treiber.push_pop_ns"], ledNote + ", anchor"},
		{"msqueue.enq_deq_ns", "ns", led["msqueue.enq_deq_ns"], ledNote + ", anchor"},
		{"relax.push_pop_ns", "ns", led["relax.push_pop_ns"], ledNote},
		{"engine.push_pop_ns", "ns", led["engine.push_pop_ns"], ledNote},
		{"adapt.push_pop_ns", "ns", led["adapt.push_pop_ns"], ledNote + ", controller running"},
		{"trace.overhead_ratio", "ratio", ratio(median(tracedOps), median(plain)),
			fmt.Sprintf("traced over untraced ops_per_s, %d+%d rounds", len(tracedOps), len(plain))},
	}

	path := filepath.Join(b.cfg.spanDir, "spans-"+b.wl.name+".jsonl")
	kept, dropped, err := writeSpans(path, stamp, b.rings, b.names.names)
	if err != nil {
		return nil, total, fmt.Errorf("writing spans: %w", err)
	}
	ms[len(ms)-1].note += fmt.Sprintf("; %d spans in %s, %d overwritten", kept, path, dropped)
	return ms, total, nil
}
