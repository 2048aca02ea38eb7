package main

import (
	"bytes"
	"encoding/json"
	"math/bits"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// smallConfig shrinks every size so a whole run takes well under a
// second; the checks are the same as in a full run.
func smallConfig(t *testing.T, workload string, trace bool) config {
	c := defaultConfig()
	c.workload, c.seed, c.trace = workload, 7, trace
	c.seconds = time.Millisecond
	c.procs = 2
	c.prefill = 4096
	c.totalOps = 1 << 18
	c.oracleOps = 1 << 16
	c.mixedPasses, c.poolPasses = 2, 1
	c.treeSize = 20000
	c.minRounds = 1
	c.ledgerPairs = 256
	c.stallTimeout = 300 * time.Millisecond
	c.spanDir = t.TempDir()
	return c
}

type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func runSmall(t *testing.T, c config) (int, result) {
	t.Helper()
	var out bytes.Buffer
	code := run(c, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out.String())
	}
	return code, r
}

// dropOne loses the first push made through any handle sharing dropped,
// as a structure that loses an item would.
type dropOne struct {
	ops
	dropped *atomic.Bool
}

func (d dropOne) Push(v uint64) {
	if d.dropped.CompareAndSwap(false, true) {
		return
	}
	d.ops.Push(v)
}

func (d dropOne) Flush()      { flush(d.ops) }
func (d dropOne) FlushStats() { flushStats(d.ops) }

func TestPlantedDropFailsTheRun(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			c := smallConfig(t, w.name, false)
			var dropped atomic.Bool
			c.wrap = func(h ops) ops { return dropOne{h, &dropped} }
			code, r := runSmall(t, c)
			if !dropped.Load() {
				t.Fatal("the wrapper never dropped a push")
			}
			if code == 0 || r.Correct || r.Failed < 1 {
				t.Fatalf("a dropped push went unnoticed: exit %d, correct %v, failed %d", code, r.Correct, r.Failed)
			}
		})
	}
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestRunsMatchBenchmarkJSON runs every workload untraced and traced and
// checks that each passes its checks and prints exactly the metrics,
// with the units, that BENCHMARK.json declares.
func TestRunsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		if !slices.Contains(names, w.name) {
			t.Errorf("workload %s is missing from BENCHMARK.json", w.name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command runs %d", len(names), len(workloads))
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			list := s.EndToEnd
			if traced {
				list = s.PerLayer
			}
			for _, m := range list {
				want[m.Name] = m.Unit
			}
			code, r := runSmall(t, smallConfig(t, w.name, traced))
			if code != 0 || !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Fatalf("%s traced=%v: exit %d, correct %v, failed %d of %d", w.name, traced, code, r.Correct, r.Failed, r.Attempted)
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", w.name, traced, len(r.Metrics), len(want))
			}
			for name, unit := range want {
				if m, ok := r.Metrics[name]; !ok || m.Unit != unit {
					t.Errorf("%s traced=%v: metric %s printed as %+v, declared with unit %s", w.name, traced, name, m, unit)
				}
			}
		}
	}
}

// TestTreeIsSeededAndExact expands the task tree sequentially: every id
// appears exactly once whatever the seed, and the seed changes the shape.
func TestTreeIsSeededAndExact(t *testing.T) {
	const size = 50000
	shape := func(seed uint64) []uint64 {
		tr := tree{seed: seed, size: size}
		seen := newLabelSet(size)
		stack := []uint64{tr.root()}
		var order []uint64
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			seen.mark(v >> 32)
			order = append(order, v)
			stack = tr.children(v, stack)
		}
		all := newLabelSet(size)
		for i := range uint64(size) {
			all.set(i)
		}
		if n := audit(all, []*labelSet{seen}); n != 0 {
			t.Fatalf("seed %d: %d ids missing or repeated", seed, n)
		}
		return order
	}
	if a, b := shape(1), shape(1); !slices.Equal(a, b) {
		t.Error("one seed gave two trees")
	}
	if slices.Equal(shape(1), shape(2)) {
		t.Error("two seeds gave the same tree")
	}
}

func TestPatternIsBalanced(t *testing.T) {
	pat, low := pattern(3, 0)
	for blk := 0; blk < len(pat); blk += blockLen / 64 {
		n := 0
		for _, w := range pat[blk : blk+blockLen/64] {
			n += bits.OnesCount64(w)
		}
		if n != blockLen/2 {
			t.Fatalf("block at call %d has %d pushes, want %d", blk*64, n, blockLen/2)
		}
	}
	if low >= 0 || low < -blockLen/2 {
		t.Fatalf("lowest balance %d out of range", low)
	}
	other, _ := pattern(4, 0)
	if slices.Equal(pat, other) {
		t.Error("two seeds gave the same pattern")
	}
}
