// Package exp is the experiment harness: one runner per table and
// figure of the paper's evaluation (§VI), each regenerating the
// corresponding rows/series from the simulated substrate. The CLI
// (cmd/drowsyctl) and the benchmark suite (bench_test.go) are thin
// wrappers over this package.
package exp

import (
	"fmt"
	"io"

	"drowsydc/internal/cluster"
	"drowsydc/internal/dcsim"
	"drowsydc/internal/drowsy"
	"drowsydc/internal/neat"
	"drowsydc/internal/oasis"
	"drowsydc/internal/trace"
)

// VMSpec describes one VM of an experiment population.
type VMSpec struct {
	Name        string
	Kind        cluster.Kind
	MemGB       int
	VCPUs       int
	Gen         trace.Generator
	TimerDriven bool
	// InitialHost pins the starting placement (-1 lets the policy
	// decide).
	InitialHost int
}

// BuildCluster materializes hosts and VMs.
func BuildCluster(nHosts, hostMemGB, hostVCPUs, slots int, specs []VMSpec) *cluster.Cluster {
	c := cluster.New()
	for i := 0; i < nHosts; i++ {
		c.AddHost(cluster.NewHost(i, fmt.Sprintf("P%d", i+2), hostMemGB, hostVCPUs, slots))
	}
	for i, s := range specs {
		v := cluster.NewVM(i, s.Name, s.Kind, s.MemGB, s.VCPUs, s.Gen)
		v.TimerDriven = s.TimerDriven
		c.AddVM(v)
		if s.InitialHost >= 0 {
			if err := c.Place(v, c.Hosts()[s.InitialHost]); err != nil {
				panic(err)
			}
		}
	}
	return c
}

// TestbedSpecs returns the paper's §VI-A population: 2 LLMU VMs (V1,
// V2, initially on distinct machines, V2 on P2) and 6 LLMI VMs driven
// by the production-like traces, V3 and V4 receiving the exact same
// workload.
func TestbedSpecs() []VMSpec {
	return []VMSpec{
		{Name: "V1", Kind: cluster.KindLLMU, MemGB: 6, VCPUs: 2, Gen: trace.LLMU(11), InitialHost: 1},
		{Name: "V2", Kind: cluster.KindLLMU, MemGB: 6, VCPUs: 2, Gen: trace.LLMU(22), InitialHost: 0},
		{Name: "V3", Kind: cluster.KindLLMI, MemGB: 6, VCPUs: 2, Gen: trace.RealTrace(1), InitialHost: 0},
		{Name: "V4", Kind: cluster.KindLLMI, MemGB: 6, VCPUs: 2, Gen: trace.RealTrace(1), InitialHost: 1},
		{Name: "V5", Kind: cluster.KindLLMI, MemGB: 6, VCPUs: 2, Gen: trace.RealTrace(3), InitialHost: 2},
		{Name: "V6", Kind: cluster.KindLLMI, MemGB: 6, VCPUs: 2, Gen: trace.RealTrace(4), InitialHost: 3},
		{Name: "V7", Kind: cluster.KindLLMI, MemGB: 6, VCPUs: 2, Gen: trace.RealTrace(5), InitialHost: 2},
		{Name: "V8", Kind: cluster.KindLLMI, MemGB: 6, VCPUs: 2, Gen: trace.RealTrace(2), InitialHost: 3},
	}
}

// policyConstructors is the single source of policy names, shared by
// NewPolicy and ValidPolicy so the two cannot drift.
var policyConstructors = map[string]func() cluster.Policy{
	"drowsy":      func() cluster.Policy { return drowsy.New(drowsy.Options{}) },
	"drowsy-full": func() cluster.Policy { return drowsy.New(drowsy.Options{FullRelocation: true}) },
	"neat":        func() cluster.Policy { return neat.New(neat.Options{}) },
	"oasis":       func() cluster.Policy { return oasis.New(oasis.Options{}) },
}

// ValidPolicy reports whether name is a policy NewPolicy can build,
// for callers that validate configurations before fanning out (a bad
// name would otherwise panic on a worker goroutine).
func ValidPolicy(name string) bool {
	_, ok := policyConstructors[name]
	return ok
}

// NewPolicy constructs a policy by name: "drowsy" (production mode),
// "drowsy-full" (periodic full relocation, the testbed evaluation
// mode), "neat", or "oasis".
func NewPolicy(name string) cluster.Policy {
	ctor, ok := policyConstructors[name]
	if !ok {
		panic(fmt.Sprintf("exp: unknown policy %q", name))
	}
	return ctor()
}

// RunTestbedPolicy executes the testbed under one policy configuration.
func RunTestbedPolicy(policy string, days int, enableSuspend, useGrace bool) *dcsim.Result {
	return RunTestbedPolicyAt(policy, days, enableSuspend, useGrace, dcsim.ResolutionHourly)
}

// RunTestbedPolicyAt is RunTestbedPolicy with an explicit activity
// resolution, so the sub-hourly event mode can be benchmarked on the
// exact workload the hourly baseline benchmarks run.
func RunTestbedPolicyAt(policy string, days int, enableSuspend, useGrace bool, res dcsim.Resolution) *dcsim.Result {
	c := BuildCluster(4, 16, 4, 2, TestbedSpecs())
	r := dcsim.NewRunner(dcsim.Config{
		Hours:         days * 24,
		EnableSuspend: enableSuspend,
		UseGrace:      useGrace,
		Resolution:    res,
	}, c, NewPolicy(policy))
	return r.Run()
}

// writef writes formatted text, ignoring errors (experiment renderers
// target stdout or a strings.Builder).
func writef(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format, args...)
}
