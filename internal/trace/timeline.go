package trace

import (
	"sync/atomic"

	"drowsydc/internal/simtime"
	"drowsydc/internal/timeline"
)

// Within-hour burst timelines (internal/timeline) are pure functions of
// (seed, hour, level), exactly like the activity levels themselves, so
// they memoize the same way: TimelineMemo mirrors CachedGenerator (one
// single-consumer chunked memo per VM) and SharedTimeline mirrors
// Shared (one lock-free concurrent memo for a whole replicated
// population, spanning every policy cell of a scenario run). The
// sub-hourly simulation queries a VM's timeline several times per
// transition hour — once for the host awake-set merge and again for
// wake attribution — so memoization keeps the event mode's overhead
// bounded the same way activity memoization does for the hourly mode.

// emptyBursts marks an hour computed to have no bursts; nil chunk slots
// mean "not yet computed" (a level-zero hour legitimately expands to an
// empty timeline, so nil alone would be ambiguous).
var emptyBursts = []timeline.Burst{}

// TimelineMemo memoizes per-hour burst timelines for one consumer. Like
// CachedGenerator it is not safe for concurrent use: each cluster.VM
// owns one, and parallel experiment cells build disjoint clusters.
// Levels come from the wrapped source, so timelines and levels can
// never disagree.
type TimelineMemo struct {
	seed   uint64
	src    Source
	chunks [][][]timeline.Burst
}

// NewTimelineMemo builds an empty memo expanding src's levels with the
// given seed.
func NewTimelineMemo(seed uint64, src Source) *TimelineMemo {
	return &TimelineMemo{seed: seed, src: src}
}

// Bursts returns hour h's timeline, computing and storing it on first
// access. Negative hours delegate to direct expansion, mirroring
// CachedGenerator's negative-hour passthrough.
func (m *TimelineMemo) Bursts(h simtime.Hour) []timeline.Burst {
	if h < 0 {
		return timeline.Expand(m.seed, h, m.src.Activity(h))
	}
	ci := int(h >> cachedChunkBits)
	if ci >= len(m.chunks) {
		grown := make([][][]timeline.Burst, ci+1)
		copy(grown, m.chunks)
		m.chunks = grown
	}
	chunk := m.chunks[ci]
	if chunk == nil {
		chunk = make([][]timeline.Burst, cachedChunkLen)
		m.chunks[ci] = chunk
	}
	v := chunk[int(h)&cachedChunkMask]
	if v == nil {
		v = timeline.Expand(m.seed, h, m.src.Activity(h))
		if v == nil {
			v = emptyBursts
		}
		chunk[int(h)&cachedChunkMask] = v
	}
	return v
}

// timelineChunk holds 512 hours of burst timelines, computed wholesale
// and immutable once published (the same protocol as Shared's chunks).
type timelineChunk [cachedChunkLen][]timeline.Burst

// SharedTimeline is the concurrent counterpart of TimelineMemo: one
// burst memo for a population of VMs replaying the same archetype trace
// with the same timeline seed (a scenario's replicated workload group),
// readable from any number of concurrently running policy cells.
// Activity levels come from the wrapped Shared store, so timelines and
// levels can never disagree.
type SharedTimeline struct {
	seed   uint64
	src    *Shared
	chunks []atomic.Pointer[timelineChunk]
}

// NewSharedTimeline builds a shared timeline store over the given
// shared trace covering hours [0, horizon). As with NewShared, the
// horizon only bounds the memoized span: hours outside it fall back to
// direct expansion, which is bit-identical because the expansion is
// pure.
func NewSharedTimeline(seed uint64, src *Shared, horizon simtime.Hour) *SharedTimeline {
	if src == nil {
		panic("trace: SharedTimeline without a shared trace source")
	}
	n := 0
	if horizon > 0 {
		n = (int(horizon) + cachedChunkLen - 1) >> cachedChunkBits
	}
	return &SharedTimeline{seed: seed, src: src, chunks: make([]atomic.Pointer[timelineChunk], n)}
}

// Seed returns the expansion seed (VM wiring checks it so a private
// fallback replays the same timelines as the shared store).
func (s *SharedTimeline) Seed() uint64 { return s.seed }

// Bursts returns hour h's timeline. Within the horizon it is served
// from the shared memo (computing the enclosing chunk on first touch);
// outside it delegates to direct expansion. Safe for concurrent use.
func (s *SharedTimeline) Bursts(h simtime.Hour) []timeline.Burst {
	if h < 0 {
		return timeline.Expand(s.seed, h, s.src.Activity(h))
	}
	ci := int(h >> cachedChunkBits)
	if ci >= len(s.chunks) {
		return timeline.Expand(s.seed, h, s.src.Activity(h))
	}
	c := s.chunks[ci].Load()
	if c == nil {
		c = s.fillTimelines(ci)
	}
	v := c[int(h)&cachedChunkMask]
	return v
}

// fillTimelines computes chunk ci wholesale and publishes it, returning
// whichever copy won the publication race (both are identical: the
// expansion is pure).
func (s *SharedTimeline) fillTimelines(ci int) *timelineChunk {
	c := new(timelineChunk)
	base := simtime.Hour(ci << cachedChunkBits)
	for i := range c {
		h := base + simtime.Hour(i)
		v := timeline.Expand(s.seed, h, s.src.Activity(h))
		if v == nil {
			v = emptyBursts
		}
		c[i] = v
	}
	if s.chunks[ci].CompareAndSwap(nil, c) {
		return c
	}
	return s.chunks[ci].Load()
}
