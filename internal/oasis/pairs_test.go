package oasis

import (
	"math/rand"
	"slices"
	"testing"
)

// TestPairListMatchesSortedFilter checks one level's ordering pipeline
// against its plain definition — drop pairs with a matched endpoint,
// then sort the packed keys — at sizes on both sides of the one-chunk
// comparison sort, with the pool reused across levels.
func TestPairListMatchesSortedFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(0x9a125))
	var pp pairPool
	var l pairList
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(300)
		m := rng.Intn(4 * pairChunk)
		used := make([]bool, n)
		for i := range used {
			used[i] = rng.Intn(3) == 0
		}
		var want []uint64
		for range m {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			if b < a {
				a, b = b, a
			}
			pk := uint64(a)<<32 | uint64(b)
			l.push(&pp, pk)
			if !used[a] && !used[b] {
				want = append(want, pk)
			}
		}
		slices.Sort(want)
		l.keepLive(&pp, used)
		l.order(&pp, n)
		var got []uint64
		for ci := range l.ids {
			got = append(got, l.chunk(&pp, ci)...)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (n %d, %d keys): ordered live pairs differ from the sorted filter", trial, n, len(want))
		}
		l.truncate(&pp, 0)
		if len(pp.free) != len(pp.chunks) {
			t.Fatalf("trial %d: %d of %d chunks returned to the pool", trial, len(pp.free), len(pp.chunks))
		}
	}
}
