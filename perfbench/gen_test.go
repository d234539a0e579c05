package main

import (
	"slices"
	"testing"

	"drowsydc/internal/server"
)

func sequence(seed uint64, n int) []request {
	g := newGenerator(seed)
	out := make([]request, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func TestGeneratorIsDeterministicPerSeed(t *testing.T) {
	a, b := sequence(7, 3000), sequence(7, 3000)
	for i := range a {
		if a[i].seq != i || a[i].kind != b[i].kind || a[i].checked != b[i].checked ||
			!slices.Equal(a[i].body, b[i].body) {
			t.Fatalf("request %d differs between two generators of seed 7: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := sequence(8, 3000)
	same := 0
	for i := range a {
		if a[i].key() == c[i].key() {
			same++
		}
	}
	if same == len(a) {
		t.Error("seeds 7 and 8 produced the same sequence")
	}
}

// TestGeneratorMix checks the shares the workload promises, over more
// requests than a loop on the reference machine sends, and that every
// generated body is a request drowsyd accepts.
func TestGeneratorMix(t *testing.T) {
	const n = 6000
	seen := map[string]bool{}
	repeats, runs, sweeps, series, checked := 0, 0, 0, 0, 0
	g := newGenerator(1)
	for range n {
		r := g.next()
		spec, err := server.ParseJobSpec(r.body)
		if err != nil {
			t.Fatalf("request %d: %v", r.seq, err)
		}
		switch r.kind {
		case kindSweep:
			_, err = spec.BuildSweep(server.Limits{})
		default:
			_, err = spec.BuildRun(server.Limits{})
		}
		if err != nil {
			t.Fatalf("request %d (%s %s): %v", r.seq, r.kind, r.body, err)
		}
		if r.checked {
			checked++
		}
		switch {
		case r.kind == kindTimeseries:
			series++
		case seen[r.key()]:
			repeats++
		case r.kind == kindRun:
			runs++
		default:
			sweeps++
		}
		seen[r.key()] = true
	}
	share := func(k int) float64 { return float64(k) / n }
	if s := share(repeats); s < 0.66 || s > 0.74 {
		t.Errorf("repeat share %.3f, want about %.2f", s, repeatShare)
	}
	if s := share(runs); s < 0.21 || s > 0.29 {
		t.Errorf("new run share %.3f, want about %.2f", s, newRunShare)
	}
	if sweeps == 0 || series == 0 {
		t.Errorf("%d sweeps and %d timeseries requests, want some of each", sweeps, series)
	}
	if checked != checkedSpecs {
		t.Errorf("%d checked requests, want %d", checked, checkedSpecs)
	}
	if g.exhausted != 0 {
		t.Errorf("the generator ran out of new specs %d times in %d requests", g.exhausted, n)
	}
}

// TestGeneratorReportsExhaustion runs the generator past the size of
// its spec space and expects it to say so.
func TestGeneratorReportsExhaustion(t *testing.T) {
	g := newGenerator(1)
	for range 40000 {
		g.next()
	}
	if g.exhausted == 0 {
		t.Error("40000 requests did not exhaust the spec space, or the generator did not count it")
	}
}
