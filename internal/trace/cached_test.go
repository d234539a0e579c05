package trace

import (
	"testing"

	"drowsydc/internal/simtime"
)

// TestCachedMatchesUncached asserts that a memoized generator returns
// bit-identical levels to its uncached form across several years,
// including repeat queries served from the memo.
func TestCachedMatchesUncached(t *testing.T) {
	for _, g := range TableII() {
		c := Cached(g)
		for h := simtime.Hour(0); h < simtime.Hour(3*simtime.HoursPerYear); h += 7 {
			want := g.Activity(h)
			if got := c.Activity(h); got != want {
				t.Fatalf("%s: cached Activity(%d) = %v, want %v (first read)", g.Name, h, got, want)
			}
			if got := c.Activity(h); got != want {
				t.Fatalf("%s: cached Activity(%d) = %v, want %v (memo hit)", g.Name, h, got, want)
			}
		}
	}
}

// TestCachedOutOfOrderAccess exercises sparse, non-monotone access (the
// shape timer scans and trailing policy windows produce).
func TestCachedOutOfOrderAccess(t *testing.T) {
	g := RealTrace(3)
	c := Cached(g)
	hours := []simtime.Hour{8759, 0, 4000, 1, 8760 * 2, 513, 511, 512, 4000}
	for _, h := range hours {
		if got, want := c.Activity(h), g.Activity(h); got != want {
			t.Fatalf("Activity(%d) = %v, want %v", h, got, want)
		}
	}
}

// TestCachedSteadyStateAllocationFree guards the hot path: once a chunk
// exists, repeat reads allocate nothing.
func TestCachedSteadyStateAllocationFree(t *testing.T) {
	c := Cached(RealTrace(1))
	for h := simtime.Hour(0); h < 512; h++ {
		c.Activity(h) // warm the first chunk
	}
	h := simtime.Hour(0)
	if allocs := testing.AllocsPerRun(1000, func() {
		_ = c.Activity(h % 512)
		h++
	}); allocs != 0 {
		t.Fatalf("cached Activity allocates %.1f per call", allocs)
	}
}
