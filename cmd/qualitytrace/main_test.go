package main

import (
	"testing"

	"stack2d/internal/relax"
)

func TestParseAlgorithm(t *testing.T) {
	cases := []struct {
		in   string
		want relax.Algorithm
		ok   bool
	}{
		{"2d", relax.TwoDStack, true},
		{"2D-Stack", relax.TwoDStack, true},
		{"k-segment", relax.KSegment, true},
		{"ksegment", relax.KSegment, true},
		{"K-Robin", relax.KRobin, true},
		{"random", relax.RandomStack, true},
		{"c2", relax.RandomC2Stack, true},
		{"random-c2", relax.RandomC2Stack, true},
		{"elimination", relax.EliminationStack, true},
		{"treiber", relax.TreiberStack, true},
		{"nope", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		got, err := relax.ParseAlgorithm(c.in)
		if (err == nil) != c.ok {
			t.Errorf("relax.ParseAlgorithm(%q) error = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("relax.ParseAlgorithm(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}
