package trace

import (
	"math"

	"drowsydc/internal/simtime"
)

// The simulation queries the same (VM, hour) activity many times per
// simulated hour: the runtime reads it for the busy-hour check, the
// utilization aggregate, request accounting and the model update, and
// the Oasis/Neat policies re-walk trailing windows of it every round.
// Generator functions are documented pure (see Func), so the level of a
// given hour never changes — memoizing it is semantics-preserving and
// collapses all repeat evaluations of a closure chain into one array
// read.
//
// The memo is chunked: hours are grouped into fixed-size blocks that
// are allocated on first touch, so a cache covering a sparse set of
// hours (a timer scan one year ahead, a trailing policy window) costs
// memory proportional to the hours actually visited, not to the span.

const (
	// cachedChunkBits sets the chunk size to 2^9 = 512 hours (~3 weeks).
	cachedChunkBits = 9
	cachedChunkLen  = 1 << cachedChunkBits
	cachedChunkMask = cachedChunkLen - 1
)

// Source serves a VM's hourly activity levels. *CachedGenerator is the
// single-reader private store; *Shared and *VariantMemo are the stores
// a workload group's members share. Every implementation returns the
// levels of its generator bit for bit.
type Source interface {
	Activity(h simtime.Hour) float64
}

// CachedGenerator memoizes a Generator's hourly activity levels. It is
// not safe for concurrent use; each consumer (a cluster.VM) owns its
// own cache, and parallel experiment runs build disjoint clusters.
type CachedGenerator struct {
	gen Generator
	// chunks[c][o] is the memoized level of hour c·cachedChunkLen+o, or
	// NaN when not yet computed (levels are clamped to [0, 1], so NaN
	// is unambiguous).
	chunks [][]float64
}

// Cached wraps a generator with a chunked activity memo.
func Cached(g Generator) *CachedGenerator {
	return &CachedGenerator{gen: g}
}

// Activity returns the memoized activity level for hour h, computing
// and storing it on first access. The steady-state path (chunk already
// allocated) is allocation-free.
func (c *CachedGenerator) Activity(h simtime.Hour) float64 {
	if h < 0 {
		// Delegate so the error surfaces exactly as without the cache
		// (Decompose panics on negative hours).
		return c.gen.Activity(h)
	}
	ci := int(h >> cachedChunkBits)
	if ci >= len(c.chunks) {
		grown := make([][]float64, ci+1)
		copy(grown, c.chunks)
		c.chunks = grown
	}
	chunk := c.chunks[ci]
	if chunk == nil {
		chunk = make([]float64, cachedChunkLen)
		for i := range chunk {
			chunk[i] = math.NaN()
		}
		c.chunks[ci] = chunk
	}
	v := chunk[int(h)&cachedChunkMask]
	if math.IsNaN(v) {
		v = c.gen.Activity(h)
		chunk[int(h)&cachedChunkMask] = v
	}
	return v
}
