package oasis

// Test hooks for the external equivalence suite (package oasis_test),
// which cannot import oasistest from inside package oasis without an
// import cycle.

var (
	GenFor       = genFor
	TwinClusters = twinClusters
)

// IndexSize reports how many VMs the incremental idle index tracks.
func (p *Policy) IndexSize() int { return len(p.idx.entries) }
