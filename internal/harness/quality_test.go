package harness

import (
	"testing"
	"time"

	"stack2d/internal/multistack"
	"stack2d/internal/relax"
	"stack2d/internal/stats"
)

// TestQualityOrderingAcrossDesigns asserts the structural accuracy ordering
// the paper's figures rest on: at equal sub-stack count, uniform random
// scheduling scores markedly worse error distance than power-of-two-choices,
// and the window-disciplined 2D-Stack beats both. One concurrent draw is
// noisy (a descheduled worker inflates the oracle's distances by whatever
// ran meanwhile), so each design is scored by the median mean error of
// qualityDraws seeded runs; the 2x and 1.5x margins apply to the medians.
func TestQualityOrderingAcrossDesigns(t *testing.T) {
	if testing.Short() {
		t.Skip("quality measurement run")
	}
	const qualityDraws = 5
	median := func(f Factory) float64 {
		errs := make([]float64, 0, qualityDraws)
		for d := 0; d < qualityDraws; d++ {
			res, err := RunQuality(f, Workload{
				Workers:   4,
				Duration:  80 * time.Millisecond,
				PushRatio: 0.5,
				Prefill:   16384,
				Seed:      7 + uint64(d)*7919,
			})
			if err != nil {
				t.Fatalf("%s: %v", f.Name, err)
			}
			if res.Quality.Count == 0 {
				t.Fatalf("%s: no pops measured", f.Name)
			}
			errs = append(errs, res.Quality.Mean())
		}
		t.Logf("%s mean error per draw: %.1f", f.Name, errs)
		return stats.Percentile(errs, 50)
	}
	const width = 64
	randomErr := median(NewMultiFactory(multistack.Config{Width: width, Policy: multistack.Random}, 4))
	c2Err := median(NewMultiFactory(multistack.Config{Width: width, Policy: multistack.RandomC2}, 4))
	twoDErr := median(Figure2Factory(relax.TwoDStack, 4))

	t.Logf("median mean error: random=%.1f random-c2=%.1f 2D-stack=%.1f", randomErr, c2Err, twoDErr)
	if c2Err*2 > randomErr {
		t.Errorf("random (%.1f) should be at least 2x worse than random-c2 (%.1f)", randomErr, c2Err)
	}
	if twoDErr*1.5 > c2Err {
		t.Errorf("random-c2 (%.1f) should be clearly worse than 2D-stack (%.1f)", c2Err, twoDErr)
	}
}

// TestQualityGrowsWithRelaxation: the 2D-Stack's measured error must grow
// monotonically-ish with the configured k (allowing noise, we require the
// endpoints to be well separated).
func TestQualityGrowsWithRelaxation(t *testing.T) {
	if testing.Short() {
		t.Skip("quality measurement run")
	}
	w := Workload{
		Workers:   2,
		Duration:  60 * time.Millisecond,
		PushRatio: 0.5,
		Prefill:   16384,
		Seed:      3,
	}
	errAt := func(k int64) float64 {
		res, err := RunQuality(Figure1Factory(relax.TwoDStack, k, 2), w)
		if err != nil {
			t.Fatal(err)
		}
		return res.Quality.Mean()
	}
	small := errAt(8)
	large := errAt(4096)
	t.Logf("mean error: k=8 %.2f, k=4096 %.2f", small, large)
	if large < small*3 {
		t.Errorf("relaxation did not cost accuracy: k=8 err %.2f vs k=4096 err %.2f", small, large)
	}
}

// TestStrictDesignsScoreZeroQuality: every strict design must measure mean
// error exactly zero with one worker.
func TestStrictDesignsScoreZeroQuality(t *testing.T) {
	w := Workload{
		Workers:   1,
		Duration:  30 * time.Millisecond,
		PushRatio: 0.5,
		Prefill:   4096,
		Seed:      5,
	}
	for _, f := range []Factory{
		NewTreiberFactory(),
		Figure2Factory(relax.EliminationStack, 1),
		NewFlatCombiningFactory(),
	} {
		res, err := RunQuality(f, w)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if res.Quality.Mean() != 0 {
			t.Errorf("%s: mean error %.3f, want 0", f.Name, res.Quality.Mean())
		}
	}
}
