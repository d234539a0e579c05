package oasis_test

import (
	"fmt"
	"math/rand"
	"testing"

	"drowsydc/internal/cluster"
	"drowsydc/internal/oasis"
	"drowsydc/internal/oasis/oasistest"
	"drowsydc/internal/simtime"
	"drowsydc/internal/trace"
)

// The correctness backbone of the fleet-scale rebuild: the indexed,
// bound-pruned selection must be indistinguishable from the exhaustive
// reference (oasistest.NewExhaustive) in every observable — placements,
// migration counts, per-round order of operations — across randomized
// traces, windows, thresholds, margins, placements (including unplaced
// VMs, which disable the margin floor) and call patterns (hourly
// RecordHour maintenance, lazy catch-up over gaps wider than the
// window, repeated and non-monotone rebalance hours).

func sameState(t *testing.T, tag string, a, b *cluster.Cluster) {
	t.Helper()
	av, bv := a.Assignments(), b.Assignments()
	if len(av) != len(bv) {
		t.Fatalf("%s: %d vs %d VMs", tag, len(av), len(bv))
	}
	for i := range av {
		if av[i] != bv[i] {
			t.Fatalf("%s: VM %d on host %d (indexed) vs %d (exhaustive)", tag, i, av[i], bv[i])
		}
	}
	if a.Migrations() != b.Migrations() {
		t.Fatalf("%s: %d migrations (indexed) vs %d (exhaustive)", tag, a.Migrations(), b.Migrations())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
}

// TestIndexedMatchesExhaustive is the randomized old-vs-new bit-identity
// property: across many configurations and rebalance call patterns, the
// indexed selection and the exhaustive reference produce identical
// placements and migration counts at every step.
//
// The mixed populations spread pairs thinly over many score levels.
// The dense ones put hundreds to thousands of pairs on a few levels —
// every VM on one trace, a handful of replicated traces, or one trace
// at a few phase shifts (equal popcounts, different overlaps) — so the
// live-pair filter and the multi-chunk counting order run against the
// reference, not only the single-chunk sort. Their ScoredPairs and
// PrunedPairs are pinned: ordering must not move the §VII metric.
func TestIndexedMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(0x0a515))
	totalMigrations := 0
	for trial := 0; trial < 30; trial++ {
		opts := randomOptions(rng)
		nHosts := 3 + rng.Intn(8)
		slots := 2 + rng.Intn(4)
		nVMs := 2 + rng.Intn(nHosts*slots-1)
		a, b := oasis.TwinClusters(rng, nHosts, slots, nVMs, trial%3 != 0, nil)
		runEquivalence(t, rng, fmt.Sprintf("mixed trial %d", trial), opts, a, b)
		totalMigrations += a.Migrations()
	}
	if totalMigrations == 0 {
		t.Fatal("no trial migrated any VM; the equivalence property is vacuous")
	}

	// The dense trials' (scored, pruned) pair counts, as the selection
	// with a comparison sort per level produced them.
	pinned := [][2]uint64{
		{25914, 0}, {4242, 13794}, {20851, 14310}, {18153, 0},
		{13138, 11880}, {11595, 7288}, {29454, 0}, {4005, 2880},
		{10182, 602}, {25029, 0}, {6665, 6336}, {29846, 0},
	}
	dense := rand.New(rand.NewSource(0xde45e))
	totalMigrations = 0
	for trial := 0; trial < 12; trial++ {
		nVMs := 48 + dense.Intn(80)
		slots := 2 + dense.Intn(4)
		nHosts := (nVMs+slots-1)/slots + dense.Intn(4)
		opts := randomOptions(dense)
		var gen func(i int) trace.Generator
		switch trial % 3 {
		case 0: // one trace for every VM: all pairs on one level
			g := oasis.GenFor(dense, 0)
			gen = func(int) trace.Generator { return g }
		case 1: // a few replicated traces
			arch := make([]trace.Generator, 2+dense.Intn(3))
			for k := range arch {
				arch[k] = oasis.GenFor(dense, k)
			}
			gen = func(i int) trace.Generator { return arch[i%len(arch)] }
		default: // one trace at a few phase shifts
			base := trace.RealTrace(1 + dense.Intn(5))
			shifts := 2 + dense.Intn(4)
			gen = func(i int) trace.Generator { return trace.Variant(base, 9, 5*(i%shifts)) }
		}
		a, b := oasis.TwinClusters(dense, nHosts, slots, nVMs, trial%4 != 3, gen)
		tag := fmt.Sprintf("dense trial %d (%d VMs)", trial, nVMs)
		indexed := runEquivalence(t, dense, tag, opts, a, b)
		totalMigrations += a.Migrations()
		got := [2]uint64{indexed.ScoredPairs(), indexed.PrunedPairs()}
		if got != pinned[trial] {
			t.Errorf("%s: scored/pruned pairs %v, pinned %v", tag, got, pinned[trial])
		}
	}
	if totalMigrations == 0 {
		t.Fatal("no dense trial migrated any VM; the equivalence property is vacuous")
	}
}

// randomOptions draws a window, idle threshold and sticky margin.
func randomOptions(rng *rand.Rand) oasis.Options {
	return oasis.Options{
		Window:        8 + rng.Intn(250),
		IdleThreshold: 0.005 + rng.Float64()*0.3,
		StickyMargin:  0.01 + rng.Float64()*0.2,
	}
}

// runEquivalence drives the indexed policy on a and the exhaustive
// reference on b through six rounds of randomized call patterns,
// asserting identical state after each. It returns the indexed policy.
func runEquivalence(t *testing.T, rng *rand.Rand, tag string, opts oasis.Options, a, b *cluster.Cluster) *oasis.Policy {
	t.Helper()
	indexed := oasis.New(opts)
	exhaustive := oasistest.NewExhaustive(opts)

	hr := simtime.Hour(rng.Intn(100))
	for round := 0; round < 6; round++ {
		switch rng.Intn(4) {
		case 0:
			// Hourly maintenance between rounds (the RecordHour
			// hook, which the reference does not implement), then a
			// close-by rebalance.
			for step := 0; step < 1+rng.Intn(5); step++ {
				hr++
				indexed.RecordHour(a, hr-1)
			}
		case 1:
			// A gap wider than the window: the lazy path must
			// rebuild wholesale.
			hr += simtime.Hour(opts.Window + rng.Intn(100))
		case 2:
			// Same hour again (idempotence).
		default:
			hr += simtime.Hour(1 + rng.Intn(12))
		}
		indexed.Rebalance(a, hr)
		exhaustive.Rebalance(b, hr)
		sameState(t, fmt.Sprintf("%s round %d hr %d", tag, round, hr), a, b)
	}
	return indexed
}

// TestIndexedMatchesExhaustiveUnderChurn adds and removes VMs between
// rounds: the index must backfill arrivals' trailing windows and prune
// departed entries without drifting from the reference.
func TestIndexedMatchesExhaustiveUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(0xc40))
	opts := oasis.Options{Window: 48}
	a, b := oasis.TwinClusters(rng, 6, 4, 12, true, nil)
	indexed := oasis.New(opts)
	exhaustive := oasistest.NewExhaustive(opts)

	nextID := 100
	hr := simtime.Hour(60)
	for round := 0; round < 8; round++ {
		if round%2 == 0 {
			g := oasis.GenFor(rng, nextID)
			va := cluster.NewVM(nextID, fmt.Sprintf("n%d", nextID), cluster.KindLLMI, 4, 2, g)
			vb := cluster.NewVM(nextID, fmt.Sprintf("n%d", nextID), cluster.KindLLMI, 4, 2, g)
			nextID++
			a.AddVM(va)
			b.AddVM(vb)
			ha, _ := indexed.PlaceNew(a, va, hr)
			hb, _ := exhaustive.PlaceNew(b, vb, hr)
			if ha.ID != hb.ID {
				t.Fatalf("round %d: PlaceNew chose host %d vs %d", round, ha.ID, hb.ID)
			}
			_ = a.Place(va, ha)
			_ = b.Place(vb, hb)
		} else if n := len(a.VMs()); n > 4 {
			vi := rng.Intn(n)
			a.Remove(a.VMs()[vi])
			b.Remove(b.VMs()[vi])
		}
		indexed.RecordHour(a, hr)
		hr += simtime.Hour(1 + rng.Intn(24))
		indexed.Rebalance(a, hr)
		exhaustive.Rebalance(b, hr)
		sameState(t, fmt.Sprintf("churn round %d hr %d", round, hr), a, b)
	}
	// Departed VMs must not linger in the index.
	if got, want := indexed.IndexSize(), len(a.VMs()); got != want {
		t.Fatalf("index holds %d entries for %d VMs", got, want)
	}
}
