package waking

import (
	"testing"

	"drowsydc/internal/netsim"
	"drowsydc/internal/sim"
)

func newTestModule(name string, e *sim.Engine, woken *[]netsim.MAC) *Module {
	return New(name, e, 1 /* 1s lead */, func(m netsim.MAC) { *woken = append(*woken, m) })
}

func TestScheduledWakeFiresAheadOfTime(t *testing.T) {
	e := sim.New()
	var woken []netsim.MAC
	m := newTestModule("rack0", e, &woken)
	// Host 3 suspends at t=0, waking date t=100; lead is 1s → WoL at 99.
	m.HostSuspended(3, []netsim.VMID{1}, 100, true)
	e.RunUntil(98)
	if len(woken) != 0 {
		t.Fatal("woke too early")
	}
	e.RunUntil(99)
	if len(woken) != 1 || woken[0] != 3 {
		t.Fatalf("woken = %v at t=99", woken)
	}
	sched, pkt := m.Stats()
	if sched != 1 || pkt != 0 {
		t.Fatalf("stats = %d %d", sched, pkt)
	}
}

func TestPacketWake(t *testing.T) {
	e := sim.New()
	var woken []netsim.MAC
	m := newTestModule("rack0", e, &woken)
	m.HostSuspended(5, []netsim.VMID{42}, 0, false) // indefinite sleep
	if !m.PacketArrived(netsim.Packet{Dst: 42}) {
		t.Fatal("packet should wake host 5")
	}
	if len(woken) != 1 || woken[0] != 5 {
		t.Fatalf("woken = %v", woken)
	}
	if m.PacketArrived(netsim.Packet{Dst: 77}) {
		t.Fatal("packet to unmapped VM must not wake")
	}
}

func TestHostResumedCancelsSchedule(t *testing.T) {
	e := sim.New()
	var woken []netsim.MAC
	m := newTestModule("rack0", e, &woken)
	m.HostSuspended(4, []netsim.VMID{9}, 50, true)
	m.HostResumed(4) // e.g. woken early by a packet elsewhere
	e.RunUntil(200)
	if len(woken) != 0 {
		t.Fatalf("canceled schedule still fired: %v", woken)
	}
	if m.PacketArrived(netsim.Packet{Dst: 9}) {
		t.Fatal("resumed host should be unmapped")
	}
}

func TestPastWakeDateFiresImmediately(t *testing.T) {
	e := sim.New()
	e.RunUntil(1000)
	var woken []netsim.MAC
	m := newTestModule("rack0", e, &woken)
	// Waking date minus lead is in the past: fire at now.
	m.HostSuspended(1, []netsim.VMID{2}, 1000, true)
	e.RunUntil(1001)
	if len(woken) != 1 {
		t.Fatal("imminent wake date should fire immediately")
	}
}

func TestConstructorValidation(t *testing.T) {
	e := sim.New()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil wol should panic")
			}
		}()
		New("x", e, 1, nil)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative lead should panic")
			}
		}()
		New("x", e, -1, func(netsim.MAC) {})
	}()
}

func TestStringer(t *testing.T) {
	e := sim.New()
	var woken []netsim.MAC
	m := newTestModule("rack0", e, &woken)
	if m.String() == "" {
		t.Fatal("empty String")
	}
}

// TestSwitchAccessor pins the packet-path accessor the workload model
// uses.
func TestSwitchAccessor(t *testing.T) {
	e := sim.New()
	var woken []netsim.MAC
	m := newTestModule("rack0", e, &woken)
	if m.Switch() == nil {
		t.Fatal("nil switch")
	}
	m.HostSuspended(4, []netsim.VMID{9}, 0, false)
	if !m.Switch().Route(netsim.Packet{Dst: 9}) {
		t.Fatal("switch did not route to the suspended host")
	}
}

func TestFireScheduledEarly(t *testing.T) {
	e := sim.New()
	var woken []netsim.MAC
	m := newTestModule("rack0", e, &woken)
	// No pending wake: nothing to report or fire.
	if _, ok := m.ScheduledFire(9); ok {
		t.Fatal("phantom scheduled fire on an unknown host")
	}
	if m.FireScheduled(9) {
		t.Fatal("fired a wake that was never registered")
	}
	// Host 4 suspends with a waking date at t=100; lead 1s → due t=99.
	m.HostSuspended(4, []netsim.VMID{7}, 100, true)
	due, ok := m.ScheduledFire(4)
	if !ok || due != 99 {
		t.Fatalf("scheduled fire = %d, %v; want 99, true", due, ok)
	}
	// The sub-hourly walk fires it early, at its true instant: counted
	// as a scheduled wake, engine event retired.
	if !m.FireScheduled(4) {
		t.Fatal("pending wake did not fire")
	}
	if len(woken) != 1 || woken[0] != 4 {
		t.Fatalf("woken = %v", woken)
	}
	sched, _ := m.Stats()
	if sched != 1 {
		t.Fatalf("scheduled wakes = %d, want 1", sched)
	}
	// Idempotent: the wake is consumed, and draining the engine fires
	// nothing further (no double WoL at the old instant).
	if m.FireScheduled(4) {
		t.Fatal("wake fired twice")
	}
	if _, ok := m.ScheduledFire(4); ok {
		t.Fatal("consumed wake still reported pending")
	}
	e.RunUntil(200)
	if len(woken) != 1 {
		t.Fatalf("engine refired a consumed wake: %v", woken)
	}
}

func TestScheduledFireClampsToPresent(t *testing.T) {
	e := sim.New()
	var woken []netsim.MAC
	m := newTestModule("rack0", e, &woken)
	e.RunUntil(50)
	// Waking date nearly due: the lead would reach before now.
	m.HostSuspended(2, []netsim.VMID{1}, 50, true)
	due, ok := m.ScheduledFire(2)
	if !ok || due != 50 {
		t.Fatalf("scheduled fire = %d, %v; want clamped to now (50), true", due, ok)
	}
	// HostResumed retires the pending wake; firing afterwards is a no-op.
	m.HostResumed(2)
	if m.FireScheduled(2) {
		t.Fatal("fired after HostResumed retired the schedule")
	}
}

// TestCheckpointAccessors: PendingWakeDate reports the raw registered
// date (not the lead-adjusted fire instant) while a scheduled wake is
// pending, and nothing once it fired or for an indefinite sleep;
// RestoreCounters overwrites the wake counters Stats reports.
func TestCheckpointAccessors(t *testing.T) {
	e := sim.New()
	var woken []netsim.MAC
	m := newTestModule("rack0", e, &woken)
	m.HostSuspended(3, []netsim.VMID{1}, 100, true)
	m.HostSuspended(4, []netsim.VMID{2}, 0, false)
	if at, ok := m.PendingWakeDate(3); !ok || at != 100 {
		t.Fatalf("PendingWakeDate(3) = %v, %v; want 100, true", at, ok)
	}
	if _, ok := m.PendingWakeDate(4); ok {
		t.Fatal("indefinite sleep reports a pending wake date")
	}
	e.RunUntil(99)
	if _, ok := m.PendingWakeDate(3); ok {
		t.Fatal("fired wake still reports a pending date")
	}
	m.RestoreCounters(7, 9)
	if sched, pkt := m.Stats(); sched != 7 || pkt != 9 {
		t.Fatalf("Stats after RestoreCounters = %d, %d; want 7, 9", sched, pkt)
	}
}
