package netsim

import (
	"fmt"
	"math"

	"drowsydc/internal/timeline"
)

// The lossy delivery model: Wake-on-LAN is a broadcast UDP magic packet,
// and on a real network broadcast frames are dropped — by congested
// switches, by rate-limited WAN tunnels between sites, by subnet borders
// that only a per-site relay crosses reliably. Config parameterizes that
// fabric; LossModel resolves each wake transaction deterministically:
// whether an attempt is dropped is a splitmix64 hash of (seed, MAC,
// attempt serial), the same discipline trace noise uses, so a run's drop
// schedule is a pure function of its configuration — bit-identical
// across runs, worker counts and store layouts.

// Config parameterizes WoL delivery over the broadcast fabric. The zero
// value of every field except WakeLoss selects a default (resolved by
// WithDefaults), so Config{WakeLoss: 0.1} is a complete lossy fabric.
type Config struct {
	// WakeLoss is the per-attempt probability that a broadcast magic
	// packet is dropped before reaching its subnet, in [0, 1].
	WakeLoss float64
	// RetryTimeoutSeconds is the silence the waking module waits after
	// an attempt before retransmitting (0 = 1 s). Shorter timeouts fit
	// more retries under the give-up bound: aggression trades wake
	// traffic for lost wakes.
	RetryTimeoutSeconds float64
	// RetryBackoff multiplies the silence between consecutive
	// retransmissions (0 = 2; must be >= 1).
	RetryBackoff float64
	// MaxAttempts bounds total transmissions per wake, the first
	// included (0 = 6; must be >= 1).
	MaxAttempts int
	// GiveUpSilenceSeconds is the total silence after which the manager
	// declares the wake lost and recovers the host out of band over the
	// management network (0 = 10 s). Retransmissions are only scheduled
	// strictly before it.
	GiveUpSilenceSeconds float64
	// Seed keys the drop hash; runs with equal (Seed, topology,
	// WakeLoss) replay identical drop schedules.
	Seed uint64
	// RetryJoules is the energy cost of one retransmission across the
	// wake path — switch, fabric, NIC filter work (0 = 5 J).
	RetryJoules float64
	// RecoveryJoules is the cost of one out-of-band recovery after a
	// lost wake: the manager's poll, the IPMI session (0 = 50 J).
	RecoveryJoules float64
	// RelayWatts is the standing draw of one subnet relay (0 = 2 W).
	RelayWatts float64
	// RelayWakeJoules is the marginal cost of one relayed unicast wake
	// (0 = 0.5 J).
	RelayWakeJoules float64
	// RelaySubnets lists the broadcast domains equipped with a WoL
	// proxy/relay: the relay terminates the lossy broadcast leg and
	// forwards the wake as reliable unicast, at the energy costs above.
	RelaySubnets []int
}

// WithDefaults resolves the zero-value fields to their defaults.
func (c Config) WithDefaults() Config {
	if c.RetryTimeoutSeconds == 0 {
		c.RetryTimeoutSeconds = 1
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 2
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 6
	}
	if c.GiveUpSilenceSeconds == 0 {
		c.GiveUpSilenceSeconds = 10
	}
	if c.RetryJoules == 0 {
		c.RetryJoules = 5
	}
	if c.RecoveryJoules == 0 {
		c.RecoveryJoules = 50
	}
	if c.RelayWatts == 0 {
		c.RelayWatts = 2
	}
	if c.RelayWakeJoules == 0 {
		c.RelayWakeJoules = 0.5
	}
	return c
}

// Validate checks a resolved config (call WithDefaults first; the zero
// encodings of the unset fields would be rejected here by design, so a
// raw config cannot be validated by accident).
func (c Config) Validate() error {
	if math.IsNaN(c.WakeLoss) || c.WakeLoss < 0 || c.WakeLoss > 1 {
		return fmt.Errorf("netsim: wake-loss %v outside [0, 1]", c.WakeLoss)
	}
	if math.IsNaN(c.RetryTimeoutSeconds) || math.IsInf(c.RetryTimeoutSeconds, 0) || c.RetryTimeoutSeconds <= 0 {
		return fmt.Errorf("netsim: retry-timeout %v must be a positive number of seconds", c.RetryTimeoutSeconds)
	}
	if math.IsNaN(c.RetryBackoff) || math.IsInf(c.RetryBackoff, 0) || c.RetryBackoff < 1 {
		return fmt.Errorf("netsim: retry-backoff %v must be >= 1", c.RetryBackoff)
	}
	if c.MaxAttempts < 1 {
		return fmt.Errorf("netsim: max-attempts %d must be >= 1", c.MaxAttempts)
	}
	if math.IsNaN(c.GiveUpSilenceSeconds) || math.IsInf(c.GiveUpSilenceSeconds, 0) || c.GiveUpSilenceSeconds <= 0 {
		return fmt.Errorf("netsim: give-up-silence %v must be a positive number of seconds", c.GiveUpSilenceSeconds)
	}
	for name, v := range map[string]float64{
		"retry-joules":      c.RetryJoules,
		"recovery-joules":   c.RecoveryJoules,
		"relay-watts":       c.RelayWatts,
		"relay-wake-joules": c.RelayWakeJoules,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("netsim: %s %v must be a non-negative finite number", name, v)
		}
	}
	seen := map[int]bool{}
	for _, s := range c.RelaySubnets {
		if s < 0 {
			return fmt.Errorf("netsim: relay-subnets contains negative subnet index %d", s)
		}
		if seen[s] {
			return fmt.Errorf("netsim: relay-subnets lists subnet %d twice", s)
		}
		seen[s] = true
	}
	return nil
}

// WakeOutcome is the resolution of one wake transaction: how many
// transmissions it took, whether the host was reached, and the silence
// the requester endured before the host started resuming.
type WakeOutcome struct {
	// Delivered reports that some attempt reached the host. When false
	// the wake is lost: the manager recovers the host out of band after
	// the full give-up silence.
	Delivered bool
	// Relayed reports the wake crossed a relay-equipped subnet as
	// reliable unicast (always delivered, first attempt, no delay).
	Relayed bool
	// Attempts counts transmissions, the first included (>= 1).
	Attempts int
	// DelaySeconds is the silence before the host starts resuming: the
	// cumulative retransmission backoff of the delivering attempt, or
	// the give-up silence for a lost wake.
	DelaySeconds float64
}

// LossModel resolves wake transactions over a subnet topology. It is
// shared by every waking module of a run; the per-MAC attempt serials
// are stored in a flat slice so concurrent shards touching disjoint
// hosts never contend (the same discipline as the runtime's hot
// columns).
type LossModel struct {
	cfg Config
	// schedule[k] is the cumulative silence before attempt k+1; the
	// first attempt fires immediately, retransmissions at the backoff
	// instants strictly below the give-up silence, MaxAttempts capped.
	schedule []float64
	subnetOf []int
	relay    []bool
	serial   []uint64
}

// NewLossModel builds a loss model for numHosts hosts (MACs 0 ≤ mac <
// numHosts). subnetOf maps each MAC to its broadcast domain; nil puts
// every host in domain 0. The config must be resolved (WithDefaults);
// NewLossModel panics on an invalid config or topology — construction
// is programmer-facing, like the runtime's other constructors.
func NewLossModel(cfg Config, subnetOf []int, numHosts int) *LossModel {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if numHosts < 0 {
		panic("netsim: negative host count")
	}
	if subnetOf != nil && len(subnetOf) != numHosts {
		panic(fmt.Sprintf("netsim: subnet map covers %d hosts, fleet has %d", len(subnetOf), numHosts))
	}
	maxSubnet := 0
	for mac, s := range subnetOf {
		if s < 0 {
			panic(fmt.Sprintf("netsim: host %d maps to negative subnet %d", mac, s))
		}
		if s > maxSubnet {
			maxSubnet = s
		}
	}
	for _, s := range cfg.RelaySubnets {
		if s > maxSubnet {
			maxSubnet = s
		}
	}
	lm := &LossModel{
		cfg:      cfg,
		subnetOf: subnetOf,
		relay:    make([]bool, maxSubnet+1),
		serial:   make([]uint64, numHosts),
	}
	for _, s := range cfg.RelaySubnets {
		lm.relay[s] = true
	}
	lm.schedule = append(lm.schedule, 0)
	cum := cfg.RetryTimeoutSeconds
	gap := cfg.RetryTimeoutSeconds
	for len(lm.schedule) < cfg.MaxAttempts && cum < cfg.GiveUpSilenceSeconds {
		lm.schedule = append(lm.schedule, cum)
		gap *= cfg.RetryBackoff
		cum += gap
	}
	return lm
}

// Config returns the resolved configuration the model was built with.
func (lm *LossModel) Config() Config { return lm.cfg }

// Schedule returns the cumulative silences of the attempt schedule
// (Schedule()[0] is always 0: the first attempt fires immediately). Its
// length is the per-transaction attempt bound — shorter retry timeouts
// fit more retransmissions under the give-up silence.
func (lm *LossModel) Schedule() []float64 {
	return append([]float64(nil), lm.schedule...)
}

// Subnet returns the broadcast domain of a host.
func (lm *LossModel) Subnet(mac MAC) int {
	if lm.subnetOf == nil {
		return 0
	}
	return lm.subnetOf[mac]
}

// Relayed reports whether a host's subnet has a WoL relay.
func (lm *LossModel) Relayed(mac MAC) bool {
	s := lm.Subnet(mac)
	return s < len(lm.relay) && lm.relay[s]
}

// Resolve plays one wake transaction for a host synchronously: the
// attempt schedule advances until an attempt survives the drop hash or
// the schedule is exhausted. Every transmission consumes one per-MAC
// serial, so the drop fate of the n-th attempt ever sent to a host is a
// pure function of (seed, MAC, n) — independent of when transactions
// happen, which is what keeps sharded and serial walks bit-identical.
// A nil model is the perfect network: every wake is delivered on its
// first attempt with no silence, and no serial is kept.
func (lm *LossModel) Resolve(mac MAC) WakeOutcome {
	if lm == nil {
		return WakeOutcome{Delivered: true, Attempts: 1}
	}
	if lm.Relayed(mac) {
		// The relay terminates the broadcast leg: one reliable unicast
		// transmission, no silence. The serial still advances so adding
		// or removing a relay never shifts other hosts' schedules.
		lm.serial[mac]++
		return WakeOutcome{Delivered: true, Relayed: true, Attempts: 1}
	}
	for k, silence := range lm.schedule {
		lm.serial[mac]++
		if !lm.dropped(mac, lm.serial[mac]) {
			return WakeOutcome{Delivered: true, Attempts: k + 1, DelaySeconds: silence}
		}
	}
	return WakeOutcome{Attempts: len(lm.schedule), DelaySeconds: lm.cfg.GiveUpSilenceSeconds}
}

// dropped decides one attempt's fate: a splitmix64 hash of (seed, MAC,
// serial) mapped onto [0, 1) and compared against the loss rate. The
// coupled-threshold form makes drop sets nest as WakeLoss grows — an
// attempt dropped at loss p is dropped at every p' > p under the same
// seed — which is what monotonicity tests lean on.
func (lm *LossModel) dropped(mac MAC, serial uint64) bool {
	h := timeline.MixSeed(lm.cfg.Seed, uint64(mac), serial)
	return float64(h>>11)/float64(1<<53) < lm.cfg.WakeLoss
}

// Serials returns a copy of the per-MAC attempt serials, for run
// checkpoints. Together with the seed they fully determine every future
// drop fate (Resolve hashes (seed, MAC, serial) with no other state).
func (l *LossModel) Serials() []uint64 {
	return append([]uint64(nil), l.serial...)
}

// RestoreSerials overwrites the per-MAC attempt serials with previously
// captured values. The length must match the fleet the model was built
// for — a mismatch means the checkpoint belongs to a different topology.
func (l *LossModel) RestoreSerials(serials []uint64) error {
	if len(serials) != len(l.serial) {
		return fmt.Errorf("netsim: restoring %d attempt serials into a %d-host loss model",
			len(serials), len(l.serial))
	}
	copy(l.serial, serials)
	return nil
}
