package scenario

import (
	"reflect"
	"testing"

	"drowsydc/internal/cluster"
	"drowsydc/internal/exp"
	"drowsydc/internal/oasis"
	"drowsydc/internal/oasis/oasistest"
)

// The acceptance backbone of the fleet-scale Oasis rebuild: on every
// registered scenario family, at population sizes spanning 64 to 1024
// VMs, the indexed bound-pruned selection and the exhaustive reference
// (oasistest) produce bit-identical migrations, energy and SLA. The
// horizon is shrunk (the selection runs identically per round; more
// rounds only repeat the property), the comparison is not: both modes
// run the full simulation pipeline — placement, churn, suspension,
// event timelines where the family uses them.

// hostsForVMs scales a family's fleet until its simulated population
// reaches target (families derive VM counts from host counts).
func hostsForVMs(t *testing.T, f Family, target, horizon int) int {
	t.Helper()
	for hosts := 1; hosts <= 64*target; hosts++ {
		sc := f.Build(Params{Hosts: hosts, HorizonHours: horizon})
		if sc.SimulatedVMs() >= target {
			return hosts
		}
	}
	t.Fatalf("family %s cannot reach %d VMs", f.Name, target)
	return 0
}

func TestOasisIndexedMatchesExhaustiveOnFamilies(t *testing.T) {
	const horizon = 48
	sizes := []int{64, 256, 1024}
	for _, f := range Families() {
		for _, size := range sizes {
			hosts := hostsForVMs(t, f, size, horizon)
			sc := f.Build(Params{Hosts: hosts, HorizonHours: horizon})
			// Two runs of one "oasis" column over identical
			// materializations: Run builds the shipped policy, the run
			// seam swaps in the reference. The reports must be equal.
			sc.Policies = []PolicyConfig{{Label: "oasis", Policy: "oasis", Suspend: true}}
			indexed, err := Run(sc, Options{})
			if err != nil {
				t.Fatalf("%s at %d VMs: %v", f.Name, size, err)
			}
			exhaustive, err := run(sc, Options{}, Options{}.stores, exhaustiveOasis)
			if err != nil {
				t.Fatalf("%s at %d VMs (exhaustive): %v", f.Name, size, err)
			}
			if indexed.VMs < size {
				t.Fatalf("%s: %d VMs simulated, want >= %d", f.Name, indexed.VMs, size)
			}
			if !reflect.DeepEqual(indexed, exhaustive) {
				t.Fatalf("%s at %d VMs: indexed and exhaustive Oasis diverge\nindexed:    %+v\nexhaustive: %+v",
					f.Name, indexed.VMs, indexed.Policies[0], exhaustive.Policies[0])
			}
		}
	}
}

// exhaustiveOasis is exp.NewPolicy with "oasis" built as the reference
// selection.
func exhaustiveOasis(name string) cluster.Policy {
	if name == "oasis" {
		return oasistest.NewExhaustive(oasis.Options{})
	}
	return exp.NewPolicy(name)
}

// TestHeteroFleetIncludesOasis pins the headline outcome: the flagship
// fleet family now carries the Oasis column the paper's §VII comparison
// needs (it used to be excluded as impractical at this scale).
func TestHeteroFleetIncludesOasis(t *testing.T) {
	f, ok := Lookup("hetero-fleet-year")
	if !ok {
		t.Fatal("hetero-fleet-year not registered")
	}
	sc := f.Build(Params{})
	found := false
	for _, pc := range sc.Policies {
		if pc.Policy == "oasis" {
			found = true
		}
	}
	if !found {
		t.Fatal("hetero-fleet-year no longer compares against Oasis")
	}
	// Shrunk end-to-end smoke: the column actually runs and produces a
	// sane report alongside the others.
	sc = f.Build(Params{Hosts: 14, HorizonHours: 14 * 24})
	rep, err := Run(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var oasisKWh float64
	for _, pr := range rep.Policies {
		if pr.Policy == "oasis" {
			oasisKWh = pr.EnergyKWh
		}
	}
	if oasisKWh <= 0 {
		t.Fatalf("oasis column missing or dead in report: %+v", rep.Policies)
	}
}
