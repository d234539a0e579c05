package dcsim

import (
	"sync"
	"testing"

	"drowsydc/internal/cluster"
	"drowsydc/internal/drowsy"
	"drowsydc/internal/simtime"
	"drowsydc/internal/trace"
)

func TestIPMemoEpoch(t *testing.T) {
	m := newIPMemo(1)
	h := simtime.Hour(100)
	if _, ok := m.get(0, m.key(h)); ok {
		t.Fatal("hit on empty memo")
	}
	key := m.key(h)
	m.put(0, key, 0.9)
	if ip, ok := m.get(0, key); !ok || ip != 0.9 {
		t.Fatal("memo miss after store")
	}
	if _, ok := m.get(0, m.key(h+1)); ok {
		t.Fatal("hit for a different hour")
	}
	// An observe phase retires the entry without touching the slot.
	m.advance()
	if _, ok := m.get(0, m.key(h)); ok {
		t.Fatal("hit across an epoch advance")
	}
	// Hour-0 keys are distinguishable from the zeroed-slot state.
	fresh := newIPMemo(1)
	if _, ok := fresh.get(0, fresh.key(0)); ok {
		t.Fatal("zeroed slot matches the hour-0 key")
	}
}

// TestIPMemoArrivalSlots: a VM arriving mid-run owns a slot from
// construction on, starting fresh, and the memoized host probability
// agrees bit for bit with cluster.Host.Probability on every host once
// the arrival has been placed.
func TestIPMemoArrivalSlots(t *testing.T) {
	c := shardedFleet(4)
	newcomer := cluster.NewVM(1000, "newcomer", cluster.KindLLMI, 6, 2, trace.RealTrace(2))
	r := NewRunner(Config{
		Hours: 3 * 24, EnableSuspend: true, UseGrace: true,
		Arrivals: []Arrival{{At: 30, VM: newcomer}},
	}, c, drowsy.New(drowsy.Options{FullRelocation: true}))
	slot, ok := r.slotOf[newcomer.ID]
	if !ok || slot >= len(r.slotAct) || slot >= len(r.ip.ip) {
		t.Fatalf("arrival slot %d (known %v) outside %d activity / %d memo slots",
			slot, ok, len(r.slotAct), len(r.ip.ip))
	}
	if _, hit := r.ip.get(slot, r.ip.key(0)); hit || r.slotAct[slot] != 0 {
		t.Fatal("arrival slot does not start fresh")
	}
	r.Run()
	if newcomer.Host() == nil {
		t.Fatal("arrival was never placed")
	}
	for _, hr := range []simtime.Hour{0, 40, 71} {
		for pass := 0; pass < 2; pass++ { // the second pass reads memo hits
			for _, rt := range r.rts {
				if got, want := r.hostProbability(rt, hr), rt.host.Probability(hr); got != want {
					t.Fatalf("host %d hour %d pass %d: memoized %v, direct %v",
						rt.host.ID, hr, pass, got, want)
				}
			}
		}
	}
}

// TestSlotStateShardedWrites exercises the per-slot state's sharded-use
// contract under the race detector: concurrent writers on disjoint,
// deliberately unaligned slot ranges, as the parallel host phase
// produces.
func TestSlotStateShardedWrites(t *testing.T) {
	const slots, shards = 1003, 8
	act := make([]float64, slots)
	m := newIPMemo(slots)
	key := m.key(3)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		lo, hi := s*slots/shards, (s+1)*slots/shards
		wg.Add(1)
		go func() {
			defer wg.Done()
			for slot := lo; slot < hi; slot++ {
				act[slot] = float64(slot)
				m.put(slot, key, float64(slot)/slots)
			}
		}()
	}
	wg.Wait()
	for slot := 0; slot < slots; slot++ {
		if act[slot] != float64(slot) {
			t.Fatalf("slot %d activity corrupted", slot)
		}
		if ip, ok := m.get(slot, key); !ok || ip != float64(slot)/slots {
			t.Fatalf("slot %d memo corrupted", slot)
		}
	}
}
