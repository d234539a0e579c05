// Package waking implements Drowsy-DC's waking module (§V): the
// component, colocated with the SDN switch of each rack, that resumes
// drowsy servers. Two event types trigger a resume:
//
//  1. an inbound network request whose destination VM lives on a
//     suspended server (detected by the switch's VM→MAC hashmap, §V-A);
//  2. a scheduled waking date registered by the suspending module before
//     the host went to sleep (§V-B), fired ahead of time by the resume
//     latency so the host is awake when the timer expires.
//
// The paper pairs modules so a survivor takes over a defective peer's
// mappings (§V). That failover is not modelled: a simulated module
// never fails, so the runtime (internal/dcsim) runs one module per
// shard and a pair would change no output.
//
// A module fires each wake through its single WoL callback and knows
// nothing of delivery: the runtime's callback resolves the wake through
// netsim's loss model.
package waking

import (
	"fmt"

	"drowsydc/internal/netsim"
	"drowsydc/internal/sim"
	"drowsydc/internal/simtime"
)

// Module is one waking module instance.
type Module struct {
	Name string

	engine *sim.Engine
	wol    func(netsim.MAC)
	lead   simtime.Duration // wake this much ahead of the scheduled date

	sw        *netsim.Switch
	schedule  map[netsim.MAC]*sim.Timer
	wakeDates map[netsim.MAC]simtime.Time

	scheduledWakes uint64
	packetWakes    uint64
}

// New creates a waking module. wol delivers Wake-on-LAN to a host; lead
// is the resume latency compensated when firing scheduled dates.
func New(name string, engine *sim.Engine, lead simtime.Duration, wol func(netsim.MAC)) *Module {
	if wol == nil {
		panic("waking: nil WoL sender")
	}
	if lead < 0 {
		panic("waking: negative lead")
	}
	m := &Module{
		Name:      name,
		engine:    engine,
		wol:       wol,
		lead:      lead,
		schedule:  make(map[netsim.MAC]*sim.Timer),
		wakeDates: make(map[netsim.MAC]simtime.Time),
	}
	m.sw = netsim.NewSwitch(wol)
	return m
}

// Switch exposes the module's packet path for the workload model.
func (m *Module) Switch() *netsim.Switch { return m.sw }

// HostSuspended registers a suspended host: its VMs' addresses map to
// its MAC, and when the suspending module computed a waking date, a WoL
// is scheduled lead seconds early. hasDate false means no valid timer
// existed (§V-B): the host sleeps until an external request.
func (m *Module) HostSuspended(mac netsim.MAC, vms []netsim.VMID, wakeAt simtime.Time, hasDate bool) {
	m.sw.MapSuspended(mac, vms)
	if hasDate {
		fireAt := wakeAt - simtime.Time(m.lead)
		if fireAt < m.engine.Now() {
			fireAt = m.engine.Now()
		}
		m.wakeDates[mac] = wakeAt
		m.schedule[mac] = m.engine.Schedule(fireAt, func(*sim.Engine) {
			m.scheduledWakes++
			delete(m.schedule, mac)
			delete(m.wakeDates, mac)
			m.wol(mac)
		})
	}
}

// HostResumed clears a host's mappings and pending schedule once it is
// awake again.
func (m *Module) HostResumed(mac netsim.MAC) {
	m.sw.UnmapHost(mac)
	if t, ok := m.schedule[mac]; ok {
		t.Cancel()
		delete(m.schedule, mac)
	}
	delete(m.wakeDates, mac)
}

// ScheduledFire returns the instant at which a host's pending
// scheduled wake is due to fire — the registered waking date minus the
// lead, clamped to the present — and whether one is pending. The
// sub-hourly event walk polls it so ahead-of-time WoLs land at their
// true second-scale instants instead of the next hour boundary (the
// only points the engine otherwise advances through).
func (m *Module) ScheduledFire(mac netsim.MAC) (simtime.Time, bool) {
	t, ok := m.schedule[mac]
	if !ok || !t.Active() {
		return 0, false
	}
	fireAt := m.wakeDates[mac] - simtime.Time(m.lead)
	if fireAt < m.engine.Now() {
		fireAt = m.engine.Now()
	}
	return fireAt, true
}

// FireScheduled fires a host's pending scheduled wake immediately:
// the queued engine event is canceled, the wake is counted, and the
// WoL delivered. It reports whether a wake was pending. Callers decide
// the instant (the sub-hourly event walk clamps the machine's resume
// to ScheduledFire's time); firing through the engine at hour
// boundaries remains the default path.
func (m *Module) FireScheduled(mac netsim.MAC) bool {
	t, ok := m.schedule[mac]
	if !ok || !t.Active() {
		return false
	}
	t.Cancel()
	delete(m.schedule, mac)
	delete(m.wakeDates, mac)
	m.scheduledWakes++
	m.wol(mac)
	return true
}

// PacketArrived runs the packet analyzer for one inbound request and
// reports whether it woke a suspended host.
func (m *Module) PacketArrived(p netsim.Packet) bool {
	woke := m.sw.Route(p)
	if woke {
		m.packetWakes++
	}
	return woke
}

// Stats returns (scheduled wakes fired, packet wakes fired).
func (m *Module) Stats() (scheduled, packet uint64) {
	return m.scheduledWakes, m.packetWakes
}

// String renders a diagnostic summary.
func (m *Module) String() string {
	return fmt.Sprintf("waking[%s]{suspended=%d scheduled=%d}",
		m.Name, len(m.sw.SuspendedHosts()), len(m.schedule))
}

// PendingWakeDate returns the registered waking date of a suspended
// host's scheduled wake (the raw date, not the lead-adjusted fire
// instant ScheduledFire reports) and whether one is pending. Run
// checkpoints capture it so a restored module can re-register the exact
// same schedule through HostSuspended.
func (m *Module) PendingWakeDate(mac netsim.MAC) (simtime.Time, bool) {
	t, ok := m.schedule[mac]
	if !ok || !t.Active() {
		return 0, false
	}
	return m.wakeDates[mac], true
}

// RestoreCounters overwrites the module's cumulative wake counters with
// previously captured values, for run checkpoints.
func (m *Module) RestoreCounters(scheduledWakes, packetWakes uint64) {
	m.scheduledWakes = scheduledWakes
	m.packetWakes = packetWakes
}
