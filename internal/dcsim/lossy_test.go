package dcsim

import (
	"fmt"
	"testing"

	"drowsydc/internal/drowsy"
	"drowsydc/internal/metrics"
	"drowsydc/internal/neat"
	"drowsydc/internal/netsim"
)

// runLossy runs a drowsy simulation over the sharded test fleet with a
// delivery model; subnet maps a host index to its broadcast domain.
func runLossy(hosts, hours, workers, span int, net *netsim.Config, subnet func(i int) int, res Resolution) *Result {
	c := shardedFleet(hosts)
	if subnet != nil {
		for i, h := range c.Hosts() {
			h.Subnet = subnet(i)
		}
	}
	cfg := Config{
		Hours:         hours,
		EnableSuspend: true,
		UseGrace:      true,
		ShardWorkers:  workers,
		ShardHostSpan: span,
		Resolution:    res,
		Network:       net,
	}
	return NewRunner(cfg, c, drowsy.New(drowsy.Options{FullRelocation: true})).Run()
}

// TestLossyZeroLossIdentical is the headline compatibility contract: a
// zero-loss delivery model changes nothing but the attempt bookkeeping —
// every aggregate of the run is bit-identical to no network model at
// all, at both resolutions.
func TestLossyZeroLossIdentical(t *testing.T) {
	for _, res := range []Resolution{ResolutionHourly, ResolutionEvent} {
		base := runLossy(12, 7*24, 1, 5, nil, nil, res)
		lossless := runLossy(12, 7*24, 1, 5, &netsim.Config{WakeLoss: 0}, nil, res)
		requireIdenticalResults(t, fmt.Sprintf("res=%d", res), base, lossless)
		if base.Wake != (metrics.WakeStats{}) {
			t.Fatalf("nil network accumulated wake stats: %+v", base.Wake)
		}
		w := lossless.Wake
		if w.Attempts == 0 {
			t.Fatal("zero-loss model counted no attempts")
		}
		if w.Retries != 0 || w.LostWakes != 0 || w.RelayedWakes != 0 ||
			w.LostSLASeconds != 0 || w.PathJoules != 0 {
			t.Fatalf("zero-loss model accumulated loss artifacts: %+v", w)
		}
	}
}

// TestLossyFullLossGraceful: at loss 1 with bounded retries every wake
// transaction is lost, yet the run completes — hosts are recovered out
// of band after the give-up silence — and the SLA and energy ledgers
// carry the damage.
func TestLossyFullLossGraceful(t *testing.T) {
	for _, res := range []Resolution{ResolutionHourly, ResolutionEvent} {
		base := runLossy(12, 7*24, 1, 5, nil, nil, res)
		lost := runLossy(12, 7*24, 1, 5, &netsim.Config{WakeLoss: 1}, nil, res)
		w := lost.Wake
		if w.LostWakes == 0 {
			t.Fatalf("res=%d: loss 1 lost no wakes: %+v", res, w)
		}
		if w.Retries == 0 || w.Attempts <= w.LostWakes {
			t.Fatalf("res=%d: loss 1 without retries: %+v", res, w)
		}
		if w.LostSLASeconds <= 0 || w.PathJoules <= 0 {
			t.Fatalf("res=%d: loss 1 cost nothing: %+v", res, w)
		}
		if lost.EnergyKWh <= base.EnergyKWh {
			t.Fatalf("res=%d: loss 1 energy %v not above lossless %v",
				res, lost.EnergyKWh, base.EnergyKWh)
		}
		if lost.Latency.Max() <= base.Latency.Max() {
			t.Fatalf("res=%d: loss 1 max latency %v not above lossless %v",
				res, lost.Latency.Max(), base.Latency.Max())
		}
	}
}

// TestLossyShardEquivalence: the seeded drop schedule is a pure function
// of (seed, topology, loss) — the sharded parallel walk reproduces the
// serial walk bit for bit, wake accounting included.
func TestLossyShardEquivalence(t *testing.T) {
	net := &netsim.Config{WakeLoss: 0.3, Seed: 0xd15c, RelaySubnets: []int{1}}
	subnet := func(i int) int { return i % 3 }
	serial := runLossy(24, 7*24, 1, 5, net, subnet, ResolutionEvent)
	for _, workers := range []int{2, 8} {
		par := runLossy(24, 7*24, workers, 5, net, subnet, ResolutionEvent)
		requireIdenticalResults(t, fmt.Sprintf("workers=%d", workers), serial, par)
		if serial.Wake != par.Wake {
			t.Errorf("workers=%d: wake stats diverged: %+v != %+v", workers, par.Wake, serial.Wake)
		}
	}
	if serial.Wake.RelayedWakes == 0 {
		t.Fatal("relay subnet saw no traffic — the equivalence proved nothing about relays")
	}
	if serial.Wake.Retries == 0 {
		t.Fatal("loss 0.3 produced no retries — the equivalence proved nothing about drops")
	}
}

// TestLossyDeterminism: identical configurations replay identical runs.
func TestLossyDeterminism(t *testing.T) {
	net := &netsim.Config{WakeLoss: 0.4, Seed: 7}
	a := runLossy(12, 5*24, 1, 5, net, nil, ResolutionEvent)
	b := runLossy(12, 5*24, 1, 5, net, nil, ResolutionEvent)
	requireIdenticalResults(t, "replay", a, b)
	if a.Wake != b.Wake {
		t.Fatalf("wake stats diverged across replays: %+v != %+v", a.Wake, b.Wake)
	}
	// A different seed must reshuffle the drops (same totals would be an
	// astronomical coincidence at these volumes).
	other := &netsim.Config{WakeLoss: 0.4, Seed: 8}
	c := runLossy(12, 5*24, 1, 5, other, nil, ResolutionEvent)
	if a.Wake == c.Wake {
		t.Fatalf("distinct seeds produced identical wake stats: %+v", a.Wake)
	}
}

// TestLossyRelayEverywhere: relays on every subnet make loss irrelevant
// — no retries, no lost wakes — at the price of the relay energy.
func TestLossyRelayEverywhere(t *testing.T) {
	net := &netsim.Config{WakeLoss: 1, RelaySubnets: []int{0}}
	r := runLossy(12, 7*24, 1, 5, net, nil, ResolutionHourly)
	w := r.Wake
	if w.LostWakes != 0 || w.Retries != 0 {
		t.Fatalf("relayed fleet still lost wakes: %+v", w)
	}
	if w.RelayedWakes == 0 || w.RelayedWakes != w.Attempts {
		t.Fatalf("relay accounting inconsistent: %+v", w)
	}
	if w.PathJoules <= 0 {
		t.Fatalf("relay fleet paid no wake-path energy: %+v", w)
	}
}

// TestLossyInvalidNetworkPanics: an invalid delivery config or topology
// must fail construction loudly, not corrupt a run.
func TestLossyInvalidNetworkPanics(t *testing.T) {
	cases := map[string]func(){
		"loss above one": func() {
			runLossy(4, 24, 1, 64, &netsim.Config{WakeLoss: 2}, nil, ResolutionHourly)
		},
		"negative subnet": func() {
			runLossy(4, 24, 1, 64, &netsim.Config{WakeLoss: 0.1}, func(int) int { return -1 }, ResolutionHourly)
		},
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			fn()
		})
	}
}

// TestLossyScheduledWakesCrossFabric: scheduled WoLs travel the same
// delivery model as packet wakes. A fleet whose only VM is timer-driven
// wakes through the waking module's schedule alone, so at loss 1 every
// lost wake it records was a scheduled one. (TestLossyFullLossGraceful
// covers the packet leg.)
func TestLossyScheduledWakesCrossFabric(t *testing.T) {
	for _, res := range []Resolution{ResolutionHourly, ResolutionEvent} {
		c, _ := backupCluster(0)
		r := NewRunner(Config{StartHour: 3, Hours: 7 * 24, EnableSuspend: true, UseGrace: true,
			Resolution: res, Network: &netsim.Config{WakeLoss: 1}},
			c, neat.New(neat.Options{Underload: 1e-9})).Run()
		if r.ScheduledWakes == 0 || r.PacketWakes != 0 {
			t.Fatalf("res=%v: want scheduled wakes only, got scheduled=%d packet=%d",
				res, r.ScheduledWakes, r.PacketWakes)
		}
		if lost := r.Wake.LostWakes; lost == 0 || lost > r.ScheduledWakes {
			t.Fatalf("res=%v: %d lost wakes for %d scheduled wakes at loss 1: %+v",
				res, lost, r.ScheduledWakes, r.Wake)
		}
	}
}
