package main

import (
	"testing"

	"stack2d/internal/harness"
	"stack2d/internal/relax"
)

func TestParseAlgorithmCoversFigure2Set(t *testing.T) {
	names := []string{"2d", "k-segment", "k-robin", "random", "random-c2", "elimination", "treiber"}
	seen := map[relax.Algorithm]bool{}
	for _, n := range names {
		a, err := relax.ParseAlgorithm(n)
		if err != nil {
			t.Fatalf("relax.ParseAlgorithm(%q): %v", n, err)
		}
		seen[a] = true
	}
	for _, a := range relax.Figure2Algorithms() {
		if !seen[a] {
			t.Errorf("algorithm %v not reachable from the CLI", a)
		}
	}
}

func TestCheckConservationPasses(t *testing.T) {
	f := harness.Figure1Factory(relax.TwoDStack, 128, 2)
	if err := checkConservation(f, 2, 5000); err != nil {
		t.Fatalf("conservation on a correct stack failed: %v", err)
	}
}

func TestCheckKBoundPasses(t *testing.T) {
	f := harness.Figure1Factory(relax.TwoDStack, 128, 2)
	if err := checkKBound(f, f.K, 2, 5000); err != nil {
		t.Fatalf("k-bound on a correct stack failed: %v", err)
	}
}

func TestCheckKBoundStrictTreiber(t *testing.T) {
	f := harness.NewTreiberFactory()
	if err := checkKBound(f, 0, 2, 5000); err != nil {
		t.Fatalf("k-bound on treiber failed: %v", err)
	}
}
