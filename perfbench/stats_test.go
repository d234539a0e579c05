package main

import "testing"

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 0.99, true}, // ranks 991..1000 lie beyond p99
		{999, 0.99, false}, // only 9 do
		{100, 0.90, true},
		{99, 0.90, false},
		{20, 0.50, true},
		{19, 0.50, false},
		{0, 0.50, false},
	} {
		if got := percentileOK(c.n, c.p); got != c.want {
			t.Errorf("percentileOK(%d, %g) = %v, want %v (beyond = %d)", c.n, c.p, got, c.want, beyond(c.n, c.p))
		}
	}
}

func TestHighestPercentile(t *testing.T) {
	cands := []float64{0.5, 0.9, 0.99, 0.999}
	for _, c := range []struct {
		n      int
		want   float64
		wantOK bool
	}{
		{10000, 0.999, true},
		{9999, 0.99, true},
		{1000, 0.99, true},
		{999, 0.9, true},
		{100, 0.9, true},
		{99, 0.5, true},
		{19, 0, false},
	} {
		got, ok := highestPercentile(c.n, cands)
		if got != c.want || ok != c.wantOK {
			t.Errorf("highestPercentile(%d) = %g, %v; want %g, %v", c.n, got, ok, c.want, c.wantOK)
		}
	}
}

func TestQuantileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	if got := quantile(xs, 0.9); got != 9 {
		t.Errorf("p90 = %g, want 9", got)
	}
	if got := quantile(xs, 0.5); got != 5 {
		t.Errorf("p50 = %g, want 5", got)
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %g, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g, want 2", got)
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
}
