package main

import (
	"fmt"
	"math/rand/v2"
	"slices"
)

// The drowsyd-mix request sequence. It is a pure function of the seed:
// request i is the same body on every run with that seed, whichever
// client ends up sending it.
const (
	repeatShare = 0.70  // repeats of an earlier cacheable request (cache hits)
	newRunShare = 0.25  // new run specs (cache misses: journal, simulate, spill)
	sweepShare  = 0.025 // new small sweeps; the rest re-run a run spec with timeseries=1
	// checkedSpecs is how many of the first new run specs keep their
	// response body for the direct scenario.Run comparison (and, under
	// --trace 1, for the per-layer replay).
	checkedSpecs = 16
)

// Request kinds, which pick the endpoint.
const (
	kindRun        = "run"
	kindSweep      = "sweep"
	kindTimeseries = "timeseries"
)

// request is one generated drowsyd request.
type request struct {
	seq  int
	kind string
	body []byte
	// checked marks the first checkedSpecs new run specs.
	checked bool
}

// key identifies the response a request must reproduce: a repeat has
// the key of the request it repeats.
func (r request) key() string { return r.kind + " " + string(r.body) }

// familyRange is a family the generator draws new specs from, with the
// host and horizon ranges that keep one miss in the tens of
// milliseconds on a small machine.
type familyRange struct {
	name               string
	minHosts, maxHosts int
	minDays, maxDays   int
}

// mixFamilies spans hourly and event-resolution families and fleets
// with and without churn. Horizons reach just past the daemon's weekly
// checkpoint cadence, so about a quarter of the misses spill: enough
// to exercise the spill path without the run becoming a disk benchmark
// (every spill is an fsync'd file of up to a megabyte or so). The host
// ranges are wide enough that the space holds about 2,500 run specs,
// more than twice the new ones a 25-second loop on the reference
// machine asks for, so the mix stays as stated for the whole run.
var mixFamilies = []familyRange{
	{"diurnal-office", 4, 48, 2, 9},
	{"bursty-batch", 4, 48, 2, 9},
	{"seasonal-web", 4, 48, 2, 9},
	{"vm-churn", 4, 48, 2, 9},
	{"always-on-mix", 4, 48, 2, 9},
	{"hetero-fleet-year", 8, 64, 2, 9},
	{"flash-crowd", 4, 24, 2, 9},
	{"lossy-wan", 4, 12, 2, 5},
}

// sweepAxes are the small sweep grids drawn for /v1/sweep requests.
var sweepAxes = []struct {
	param  string
	values []string
}{
	{"grace", []string{"0", "30", "60", "120", "300"}},
	{"rebalance", []string{"1", "2", "3", "4", "6"}},
}

type generator struct {
	rng        *rand.Rand
	seq        int
	cacheable  []request // every run and sweep issued, repeat candidates
	runs       []request // every run spec issued, timeseries candidates
	seen       map[string]bool
	newChecked int
	// exhausted counts the new specs the generator could not find,
	// each replaced by a repeat; while it is 0 the mix is as stated.
	exhausted int
}

func newGenerator(seed uint64) *generator {
	return &generator{
		rng:  rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)),
		seen: map[string]bool{},
	}
}

// next returns the next request of the sequence.
func (g *generator) next() request {
	var r request
	u := g.rng.Float64()
	switch {
	case u < repeatShare && len(g.cacheable) > 0:
		r = g.cacheable[g.rng.IntN(len(g.cacheable))]
		r.checked = false
	case u < repeatShare+newRunShare:
		r = g.fresh(kindRun, g.runBody)
	case u < repeatShare+newRunShare+sweepShare:
		r = g.fresh(kindSweep, g.sweepBody)
	case len(g.runs) > 0:
		r = g.runs[g.rng.IntN(len(g.runs))]
		r.kind, r.checked = kindTimeseries, false
	default:
		r = g.fresh(kindRun, g.runBody)
	}
	r.seq = g.seq
	g.seq++
	return r
}

// fresh draws a spec not issued before. After 64 draws that were all
// issued before, it counts the space as exhausted and returns a repeat.
func (g *generator) fresh(kind string, body func() []byte) request {
	for range 64 {
		r := request{kind: kind, body: body()}
		if g.seen[r.key()] {
			continue
		}
		g.seen[r.key()] = true
		g.cacheable = append(g.cacheable, r)
		if kind == kindRun {
			g.runs = append(g.runs, r)
			if g.newChecked < checkedSpecs {
				g.newChecked++
				r.checked = true
			}
		}
		return r
	}
	g.exhausted++
	return g.cacheable[g.rng.IntN(len(g.cacheable))]
}

func (g *generator) between(lo, hi int) int { return lo + g.rng.IntN(hi-lo+1) }

func (g *generator) runBody() []byte {
	f := mixFamilies[g.rng.IntN(len(mixFamilies))]
	return fmt.Appendf(nil, `{"family":%q,"hosts":%d,"horizon_days":%d}`,
		f.name, g.between(f.minHosts, f.maxHosts), g.between(f.minDays, f.maxDays))
}

// sweepBody draws a two- or three-point sweep of a small hourly spec.
func (g *generator) sweepBody() []byte {
	f := mixFamilies[g.rng.IntN(len(mixFamilies)-1)] // every family but the event-resolution lossy-wan
	ax := sweepAxes[g.rng.IntN(len(sweepAxes))]
	// A sorted random subset: sweep grids must be ascending.
	picked := g.rng.Perm(len(ax.values))[:g.between(2, 3)]
	slices.Sort(picked)
	vals := ""
	for i, p := range picked {
		if i > 0 {
			vals += ","
		}
		vals += ax.values[p]
	}
	return fmt.Appendf(nil, `{"family":%q,"hosts":%d,"horizon_days":%d,"param":%q,"values":[%s]}`,
		f.name, g.between(4, 6), g.between(2, 3), ax.param, vals)
}
