// Package oasistest provides the reference Oasis selection that the
// fleet-scale policy in package oasis must reproduce, for tests only
// (the net/http/httptest pattern: no shipped package imports it).
//
// The reference is the literal O(n² log n) round: build one idle bitset
// per VM over the trailing window, score every pair, sort the pairs by
// (score desc, a asc, b asc), then match greedily. oasis.Policy reaches
// the same decisions through an incremental idle index and a
// bound-pruned pair search; the equivalence tests run both on twin
// clusters and require bit-identical placements and migrations.
//
// The oracle is written against oasis's exported API only. It keeps its
// own copy of the colocation step, so a change to oasis's colocate that
// alters decisions shows up as a divergence instead of being shared by
// both sides.
package oasistest

import (
	"math/bits"
	"sort"

	"drowsydc/internal/cluster"
	"drowsydc/internal/oasis"
	"drowsydc/internal/simtime"
)

// exhaustive is the reference policy.
type exhaustive struct {
	window    int
	threshold float64
	margin    float64
	// place answers PlaceNew: arrivals score against residents through
	// the same window walk in both selections, so the oracle delegates.
	place *oasis.Policy
}

// NewExhaustive returns the reference Oasis selection for opts. It
// names itself "oasis", so a scenario column it runs is labelled like
// the policy it checks. It does not implement cluster.HourRecorder: it
// rebuilds its idle bitsets from the activity trace every round.
func NewExhaustive(opts oasis.Options) cluster.Policy {
	// oasis.Options' zero-value defaults, restated. A drift between the
	// two copies makes the equivalence tests diverge.
	if opts.Window == 0 {
		opts.Window = 24 * 7
	}
	if opts.IdleThreshold == 0 {
		opts.IdleThreshold = 0.01
	}
	if opts.StickyMargin == 0 {
		opts.StickyMargin = 0.05
	}
	return &exhaustive{
		window:    opts.Window,
		threshold: opts.IdleThreshold,
		margin:    opts.StickyMargin,
		place:     oasis.New(opts),
	}
}

// Name implements cluster.Policy.
func (p *exhaustive) Name() string { return "oasis" }

// PlaceNew implements cluster.Policy by delegation.
func (p *exhaustive) PlaceNew(c *cluster.Cluster, v *cluster.VM, hr simtime.Hour) (*cluster.Host, error) {
	return p.place.PlaceNew(c, v, hr)
}

// Rebalance implements cluster.Policy: score all pairs, materialize,
// sort, match greedily.
func (p *exhaustive) Rebalance(c *cluster.Cluster, hr simtime.Hour) {
	vms := c.VMs()
	n := len(vms)
	if n < 2 {
		return
	}
	sets, window := p.idleSets(vms, hr)
	indexOf := make(map[*cluster.VM]int, n)
	for i, v := range vms {
		indexOf[v] = i
	}
	type pair struct {
		a, b  int
		score float64
	}
	pairs := make([]pair, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, pair{i, j, overlap(sets, window, i, j)})
		}
	}
	// The (a, b) tiebreak makes the order total, so the unstable sort
	// yields the same permutation as a stable one.
	sort.Slice(pairs, func(x, y int) bool {
		if pairs[x].score != pairs[y].score {
			return pairs[x].score > pairs[y].score
		}
		if pairs[x].a != pairs[y].a {
			return pairs[x].a < pairs[y].a
		}
		return pairs[x].b < pairs[y].b
	})
	used := make([]bool, n)
	for _, pr := range pairs {
		if used[pr.a] || used[pr.b] {
			continue
		}
		used[pr.a] = true
		used[pr.b] = true
		a, b := vms[pr.a], vms[pr.b]
		if a.Host() != nil && a.Host() == b.Host() {
			continue // already together
		}
		// Skip churn when the pairing gain is marginal: compare against
		// the VM's current best overlap with a host mate.
		if pr.score < currentScore(sets, window, indexOf, a)+p.margin &&
			pr.score < currentScore(sets, window, indexOf, b)+p.margin {
			continue
		}
		colocate(c, a, b)
	}
}

// idleSets builds one idle bitset per VM over the trailing window
// ending at hr: bit k of vm i's set is on when vms[i] was idle during
// hour start+k.
func (p *exhaustive) idleSets(vms []*cluster.VM, hr simtime.Hour) (sets [][]uint64, window int) {
	start := hr - simtime.Hour(p.window)
	if start < 0 {
		start = 0
	}
	window = int(hr - start)
	words := (window + 63) / 64
	sets = make([][]uint64, len(vms))
	for i, v := range vms {
		bs := make([]uint64, words)
		for k := 0; k < window; k++ {
			if v.Activity(start+simtime.Hour(k)) < p.threshold {
				bs[k>>6] |= 1 << (k & 63)
			}
		}
		sets[i] = bs
	}
	return sets, window
}

// overlap scores one pair: the fraction of the window in which both
// VMs were idle.
func overlap(sets [][]uint64, window, i, j int) float64 {
	if window == 0 {
		return 0
	}
	both := 0
	for w, x := range sets[i] {
		both += bits.OnesCount64(x & sets[j][w])
	}
	return float64(both) / float64(window)
}

// currentScore is the VM's best idle overlap with a current host mate
// (−1 for an unplaced VM).
func currentScore(sets [][]uint64, window int, indexOf map[*cluster.VM]int, v *cluster.VM) float64 {
	h := v.Host()
	if h == nil {
		return -1
	}
	best := 0.0
	for _, mate := range h.VMs() {
		if mate == v {
			continue
		}
		if s := overlap(sets, window, indexOf[v], indexOf[mate]); s > best {
			best = s
		}
	}
	return best
}

// colocate tries to bring a and b onto one host: first b to a's host,
// then a to b's host, then both to any host with two free slots.
func colocate(c *cluster.Cluster, a, b *cluster.VM) {
	if a.Host() != nil && a.Host().CanHost(b) {
		moveTo(c, b, a.Host())
		return
	}
	if b.Host() != nil && b.Host().CanHost(a) {
		moveTo(c, a, b.Host())
		return
	}
	for _, h := range c.Hosts() {
		if h == a.Host() || h == b.Host() {
			continue
		}
		if hostFits(h, a, b) {
			moveTo(c, a, h)
			moveTo(c, b, h)
			return
		}
	}
}

// hostFits reports whether h can take both VMs at once.
func hostFits(h *cluster.Host, a, b *cluster.VM) bool {
	if h.MaxVMs > 0 && h.NumVMs()+2 > h.MaxVMs {
		return false
	}
	return h.MemUsed()+a.MemGB+b.MemGB <= h.MemGB
}

// moveTo places an unplaced VM on h, or migrates a placed one there.
func moveTo(c *cluster.Cluster, v *cluster.VM, h *cluster.Host) {
	if v.Host() == nil {
		_ = c.Place(v, h)
	} else if v.Host() != h {
		_ = c.Migrate(v, h)
	}
}
