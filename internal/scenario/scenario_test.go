package scenario

import (
	"strings"
	"testing"

	"drowsydc/internal/cluster"
	"drowsydc/internal/exp"
	"drowsydc/internal/simtime"
	"drowsydc/internal/trace"
)

// small shrinks a family to test scale.
func small(name string) Scenario {
	f, ok := Lookup(name)
	if !ok {
		panic("unknown family " + name)
	}
	return f.Build(Params{Hosts: 6, HorizonHours: 7 * simtime.HoursPerDay})
}

// TestRegistryCatalog checks the catalog shape the CLI relies on: at
// least six families, unique names, complete metadata, and every one
// building a valid scenario at default and shrunk scale.
func TestRegistryCatalog(t *testing.T) {
	fams := Families()
	if len(fams) < 6 {
		t.Fatalf("%d families registered, want >= 6", len(fams))
	}
	seen := map[string]bool{}
	for _, f := range fams {
		if seen[f.Name] {
			t.Fatalf("duplicate family %q", f.Name)
		}
		seen[f.Name] = true
		if f.Description == "" || f.Probes == "" {
			t.Fatalf("family %q missing description or probes", f.Name)
		}
		for _, p := range []Params{{}, {Hosts: 6, HorizonHours: 7 * simtime.HoursPerDay}} {
			sc := f.Build(p)
			if err := sc.Validate(); err != nil {
				t.Fatalf("family %q at %+v: %v", f.Name, p, err)
			}
			if sc.Name != f.Name {
				t.Fatalf("family %q builds scenario named %q", f.Name, sc.Name)
			}
		}
	}
}

// TestYearScaleFamily pins the acceptance shape: a registered family
// with 200+ hosts and a full-year horizon.
func TestYearScaleFamily(t *testing.T) {
	f, ok := Lookup("hetero-fleet-year")
	if !ok {
		t.Fatal("hetero-fleet-year not registered")
	}
	sc := f.Build(Params{})
	if sc.TotalHosts() < 200 {
		t.Fatalf("%d hosts, want >= 200", sc.TotalHosts())
	}
	if sc.HorizonHours < simtime.HoursPerYear {
		t.Fatalf("horizon %d hours, want >= one year", sc.HorizonHours)
	}
	if len(sc.Hosts) < 2 {
		t.Fatal("year family should exercise a heterogeneous fleet")
	}
}

// TestRunSmoke runs one shrunk family end to end and sanity-checks the
// report.
func TestRunSmoke(t *testing.T) {
	rep, err := Run(small("always-on-mix"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Policies) != len(DefaultPolicies()) {
		t.Fatalf("%d policy rows, want %d", len(rep.Policies), len(DefaultPolicies()))
	}
	for _, pr := range rep.Policies {
		if pr.EnergyKWh <= 0 {
			t.Fatalf("%s: non-positive energy", pr.Policy)
		}
		if pr.SLAFraction < 0 || pr.SLAFraction > 1 {
			t.Fatalf("%s: SLA fraction %v out of range", pr.Policy, pr.SLAFraction)
		}
	}
	// Suspension must buy energy: the suspend-capable drowsy column may
	// not burn more than the no-suspension neat baseline.
	byLabel := map[string]PolicyResult{}
	for _, pr := range rep.Policies {
		byLabel[pr.Policy] = pr
	}
	if byLabel["drowsy"].EnergyKWh > byLabel["neat"].EnergyKWh {
		t.Fatalf("drowsy %v kWh exceeds vanilla neat %v kWh",
			byLabel["drowsy"].EnergyKWh, byLabel["neat"].EnergyKWh)
	}
}

// TestRunChurn checks that churn groups genuinely arrive and depart:
// the churn scenario must schedule arrivals and stay runnable.
func TestRunChurn(t *testing.T) {
	sc := small("vm-churn")
	_, arrivals, departures, _ := sc.materialize(runStores{})
	if len(arrivals) == 0 {
		t.Fatal("churn family scheduled no arrivals")
	}
	if len(departures) == 0 {
		t.Fatal("churn family scheduled no departures")
	}
	if _, err := Run(sc, Options{}); err != nil {
		t.Fatal(err)
	}
}

// churnScenario builds a minimal custom scenario around one churn
// group, for edge-case probing.
func churnScenario(arriveEvery, lifetime, horizonHours int) Scenario {
	return Scenario{
		Name:         "churn-edge",
		HorizonHours: horizonHours,
		Hosts:        stdHosts(4),
		Groups: []WorkloadGroup{
			{Name: "base", Count: 4, Kind: cluster.KindLLMI, MemGB: 4, VCPUs: 2,
				Gen: trace.RealTrace(1), ShiftStepHours: 1, Seed: 1},
			{Name: "task", Count: 20, Kind: cluster.KindSLMU, MemGB: 4, VCPUs: 2,
				Gen:        trace.Generator{Name: "slmu", Fn: trace.Const(0.8)},
				Replicated: true, ArriveEvery: arriveEvery, LifetimeHours: lifetime},
		},
		RebalanceEvery:  6,
		RequestsPerHour: 20,
	}
}

// TestChurnHandoffSameHour exercises the arrival-hour == departure-hour
// edge: with ArriveEvery == LifetimeHours, member i+1 arrives in
// exactly the hour member i departs. The runner processes arrivals
// before departures, so both briefly coexist; capacity validation must
// charge that peak and the run must place every materialized member.
func TestChurnHandoffSameHour(t *testing.T) {
	sc := churnScenario(12, 12, 5*simtime.HoursPerDay)
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	_, arrivals, departures, _ := sc.materialize(runStores{})
	coincide := false
	for _, a := range arrivals {
		for _, d := range departures {
			if a.At == d.At {
				coincide = true
			}
		}
	}
	if !coincide {
		t.Fatal("test premise broken: no arrival coincides with a departure")
	}
	rep, err := Run(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.VMs != sc.SimulatedVMs() {
		t.Fatalf("report VMs %d, want %d", rep.VMs, sc.SimulatedVMs())
	}
}

// TestChurnDeparturePastHorizon exercises members whose departure falls
// at or beyond the run's end: the simulation must complete with the
// members still alive, not stall waiting for the termination.
func TestChurnDeparturePastHorizon(t *testing.T) {
	// Lifetime far beyond the horizon: every materialized member
	// outlives the run.
	sc := churnScenario(12, 10000, 3*simtime.HoursPerDay)
	_, _, departures, _ := sc.materialize(runStores{})
	if len(departures) == 0 {
		t.Fatal("test premise broken: no departures scheduled")
	}
	for _, d := range departures {
		if int(d.At-sc.Start) < sc.HorizonHours {
			t.Fatalf("test premise broken: departure at %d inside %dh horizon", d.At, sc.HorizonHours)
		}
	}
	if _, err := Run(sc, Options{}); err != nil {
		t.Fatal(err)
	}
	// The boundary case: departure exactly at the final hour's end,
	// one hour past the last simulated hour.
	sc = churnScenario(24, 48, 3*simtime.HoursPerDay)
	if _, err := Run(sc, Options{}); err != nil {
		t.Fatal(err)
	}
}

// TestZeroPopulationGroupRejected pins the validation error for an
// empty workload group: a silent zero-member group would make reports
// quietly meaningless.
func TestZeroPopulationGroupRejected(t *testing.T) {
	sc := churnScenario(12, 12, simtime.HoursPerDay)
	sc.Groups[1].Count = 0
	err := sc.Validate()
	if err == nil || !strings.Contains(err.Error(), "task") {
		t.Fatalf("zero-population group accepted (err=%v)", err)
	}
}

// TestRunUnknownFamily checks the error path names the lookup.
func TestRunUnknownFamily(t *testing.T) {
	_, err := RunFamily("no-such-family", Params{}, Options{})
	if err == nil || !strings.Contains(err.Error(), "no-such-family") {
		t.Fatalf("want unknown-family error, got %v", err)
	}
}

// TestRunNegativeParams checks that a scale typo errors instead of
// silently running the family default (which may be year-scale).
func TestRunNegativeParams(t *testing.T) {
	for _, p := range []Params{{Hosts: -5}, {HorizonHours: -3}} {
		if _, err := RunFamily("always-on-mix", p, Options{}); err == nil {
			t.Fatalf("negative params %+v accepted", p)
		}
	}
}

// TestValidateRejects covers the front-loaded feasibility checks.
func TestValidateRejects(t *testing.T) {
	base := small("always-on-mix")
	broken := base
	broken.HorizonHours = 0
	if broken.Validate() == nil {
		t.Fatal("zero horizon accepted")
	}
	broken = base
	broken.Groups = append([]WorkloadGroup(nil), base.Groups...)
	broken.Groups[0].Count = 100000
	if broken.Validate() == nil {
		t.Fatal("overcommitted population accepted")
	}
	broken = base
	broken.Hosts = nil
	if broken.Validate() == nil {
		t.Fatal("empty fleet accepted")
	}
	broken = base
	broken.Policies = []PolicyConfig{{Label: "typo", Policy: "drowsy_full"}}
	if err := broken.Validate(); err == nil || !strings.Contains(err.Error(), "drowsy_full") {
		t.Fatalf("unknown policy name accepted (err=%v); it would panic on a worker goroutine", err)
	}
}

// TestOasisOracleIsNotAPolicy checks that the exhaustive Oasis
// reference is reachable from tests only (oasistest), not by a policy
// name a scenario, the CLI or a drowsyd request could select.
func TestOasisOracleIsNotAPolicy(t *testing.T) {
	if exp.ValidPolicy("oasis-exhaustive") {
		t.Fatal(`exp.ValidPolicy("oasis-exhaustive") is true; the reference selection ships as a policy`)
	}
	sc := small("always-on-mix")
	sc.Policies = []PolicyConfig{{Label: "ref", Policy: "oasis-exhaustive", Suspend: true}}
	if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "oasis-exhaustive") {
		t.Fatalf("column naming oasis-exhaustive accepted (err=%v)", err)
	}
}

// TestValidateChurnUsesPeak checks that capacity validation charges a
// churn group its peak concurrent membership, not its declared total: a
// long stream of short tasks is feasible on a small fleet.
func TestValidateChurnUsesPeak(t *testing.T) {
	sc := small("vm-churn")
	churn := sc.Groups[1]
	if churn.ArriveEvery == 0 || churn.LifetimeHours == 0 {
		t.Fatal("test premise broken: group 1 is not the churn group")
	}
	churn.Count = 10000 // far beyond fleet capacity if counted naively
	sc.Groups = []WorkloadGroup{sc.Groups[0], churn}
	if err := sc.Validate(); err != nil {
		t.Fatalf("feasible long churn stream rejected: %v", err)
	}
}

// TestReportCountsSimulatedVMs pins Report.VMs to the population that
// actually materializes: churn members arriving past a short horizon
// must not be counted.
func TestReportCountsSimulatedVMs(t *testing.T) {
	sc := small("vm-churn")
	c, arrivals, _, _ := sc.materialize(runStores{})
	materialized := len(c.VMs()) + len(arrivals)
	if materialized >= sc.TotalVMs() {
		t.Fatalf("test premise broken: all %d declared VMs materialize at a %dh horizon",
			sc.TotalVMs(), sc.HorizonHours)
	}
	if got := sc.SimulatedVMs(); got != materialized {
		t.Fatalf("SimulatedVMs %d, materialize produces %d", got, materialized)
	}
	rep, err := Run(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.VMs != materialized {
		t.Fatalf("report VMs %d, want %d", rep.VMs, materialized)
	}
}
