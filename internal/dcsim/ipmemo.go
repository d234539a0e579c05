package dcsim

import "drowsydc/internal/simtime"

// ipMemo memoizes each VM slot's idleness probability under a key that
// packs the queried hour and the observation epoch: every observe
// phase advances the epoch, retiring all stale entries in O(1) without
// touching the arrays. During the parallel phases of an hour a slot is
// written only by the shard owning its VM's host; the epoch advances
// only in the serial reduction, never concurrently with readers.
type ipMemo struct {
	ip    []float64
	keys  []uint64
	epoch uint32
}

func newIPMemo(slots int) ipMemo {
	return ipMemo{ip: make([]float64, slots), keys: make([]uint64, slots)}
}

// key packs a queried hour and the current epoch into a non-zero memo
// key: equal keys guarantee the memoized value was computed for the
// same hour against models in the same state. The hour occupies the
// high 32 bits (+1 so a zeroed slot never matches); the epoch may wrap
// at 2³² observe phases, which would need a single run of half a
// million simulated years to produce a false hit.
func (m *ipMemo) key(h simtime.Hour) uint64 {
	return uint64(h+1)<<32 | uint64(m.epoch)
}

// get returns the slot's memoized IP when it was stored under key.
func (m *ipMemo) get(slot int, key uint64) (float64, bool) {
	if m.keys[slot] != key {
		return 0, false
	}
	return m.ip[slot], true
}

// put memoizes the slot's IP under key.
func (m *ipMemo) put(slot int, key uint64, ip float64) {
	m.ip[slot] = ip
	m.keys[slot] = key
}

// advance retires every memoized IP (the models just absorbed an hour
// of observations).
func (m *ipMemo) advance() { m.epoch++ }
