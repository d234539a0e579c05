package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"

	"drowsydc/internal/checkpoint"
	"drowsydc/internal/dcsim"
	"drowsydc/internal/exp"
	"drowsydc/internal/metrics"
	"drowsydc/internal/scenario"
)

// syntheticRunState builds a populated checkpoint state at a given VM
// count for the codec round-trip benchmark: every section filled with
// plausible mid-run values (sorted latency multisets, mixed power
// states, per-host placements) so the encoder and decoder walk the same
// shapes a real month-boundary capture produces.
func syntheticRunState(vms int) *checkpoint.RunState {
	hosts := vms / 8
	if hosts == 0 {
		hosts = 1
	}
	model := make([]byte, 48)
	for i := range model {
		model[i] = byte(i*7 + 3)
	}
	st := &checkpoint.RunState{
		Hour: 504, HorizonHours: 744,
		Policy: "drowsy", PolicyState: []byte{1, 2, 3, 4},
		VMs:    make([]checkpoint.VMState, vms),
		Hosts:  make([]checkpoint.HostState, hosts),
		Shards: make([]checkpoint.ShardState, 8),
		HasNet: true, NetSerials: make([]uint64, hosts),
		Migrations: int64(vms / 3), MigrationSecs: 1.5 * float64(vms),
	}
	for i := range st.VMs {
		st.VMs[i] = checkpoint.VMState{
			ID: int32(i), Migrations: int32(i % 5),
			HasTimer: i%2 == 0, TimerAt: int64(500 + i%200), Model: model,
		}
	}
	for i := range st.Hosts {
		ids := make([]int32, 0, 8)
		for v := i; v < vms; v += hosts {
			ids = append(ids, int32(v))
		}
		st.Hosts[i] = checkpoint.HostState{
			ID: int32(i), VMIDs: ids, PState: uint8(i % 5), Since: float64(i),
			Util: 0.42, Joules: 1e6 + float64(i), StateJoules: [5]float64{1, 2, 3, 4, 5},
			SuspSecs: 3600, OffSecs: 60, TotalRef: 2e6, Transits: 12, Resumes: 4,
			GraceUntil: 510, Decisions: 100, VetoGrace: 3, VetoBusy: 7,
			ResumedAt: 490, HasWake: i%3 == 0, WakeAt: 520,
		}
		st.NetSerials[i] = uint64(i * 11)
	}
	for i := range st.Shards {
		lat := make([]metrics.LatencySample, 64)
		for k := range lat {
			lat[k] = metrics.LatencySample{Seconds: 0.25 * float64(k), Count: int64(k%9 + 1)}
		}
		st.Shards[i] = checkpoint.ShardState{
			Latency: lat, WakeLatency: lat[:16],
			ScheduledWakes: 40, PacketWakes: 9,
			WakeAttempts: 50, WakeRetries: 5, LostWakes: 1, RelayedWakes: 2,
			LostSLASeconds: 12.5, PathJoules: 88, EventHours: 100,
		}
	}
	return st
}

// benchCheckpointRoundTrip measures one Encode+Decode cycle of a
// checkpoint at a given fleet size — the per-boundary cost a durable
// drowsyd run pays on top of the simulation itself.
func benchCheckpointRoundTrip(vms int) func(*testing.B) {
	return func(b *testing.B) {
		st := syntheticRunState(vms)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			data := checkpoint.Encode(st)
			st2, err := checkpoint.Decode(data)
			if err != nil {
				b.Fatal(err)
			}
			if len(st2.VMs) != vms {
				b.Fatalf("round trip lost VMs: %d != %d", len(st2.VMs), vms)
			}
		}
	}
}

// benchFleetPolicy measures one policy's week over the §VII scaling
// population at a fleet size, rebalancing every six hours: the
// superlinear policy layer (Oasis's pair search, Drowsy's
// full-relocation pick) at the size where it dominates the run.
func benchFleetPolicy(policy string, vms int) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res := dcsim.NewRunner(dcsim.Config{
				Hours:             7 * 24,
				EnableSuspend:     true,
				UseGrace:          true,
				RebalanceEvery:    6,
				DisableColocation: true,
			}, exp.ScalingCluster(vms), exp.NewPolicy(policy)).Run()
			if res.EnergyKWh <= 0 {
				b.Fatal("no energy")
			}
		}
	}
}

// loadBench reads a bench result JSON (a previous run's stdout).
func loadBench(path string) ([]BenchResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []BenchResult
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("parsing %s: %v", path, err)
	}
	return rs, nil
}

// BenchResult is one benchmark row of the JSON report consumed by the
// BENCH_*.json trajectory.
type BenchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// runBench executes the representative experiment benchmarks with the
// standard testing harness and emits the results as JSON on stdout.
func runBench(args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	quick := fs.Bool("quick", false, "shrink the workloads (CI smoke mode)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile covering every benchmark to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile taken after the benchmarks to this file")
	compare := fs.String("compare", "", "baseline bench JSON (a previous run's stdout); print a delta table and exit non-zero on regression")
	threshold := fs.Float64("threshold", 20, "regression threshold for -compare, in percent ns/op increase")
	input := fs.String("input", "", "with -compare: take current results from this bench JSON instead of re-running the benchmarks")
	_ = fs.Parse(args)

	if *input != "" {
		// Pure comparison mode: both sides come from files, nothing runs.
		if *compare == "" {
			fmt.Fprintln(os.Stderr, "drowsyctl bench: -input requires -compare")
			os.Exit(2)
		}
		cur, err := loadBench(*input)
		if err != nil {
			fmt.Fprintln(os.Stderr, "drowsyctl bench: -input:", err)
			os.Exit(1)
		}
		regressed, err := compareBench(os.Stderr, *compare, cur, *threshold)
		if err != nil {
			fmt.Fprintln(os.Stderr, "drowsyctl bench: -compare:", err)
			os.Exit(1)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "drowsyctl bench: -cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "drowsyctl bench: -cpuprofile:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "drowsyctl bench: -cpuprofile:", err)
			}
		}()
	}
	defer func() {
		if *memProfile == "" {
			return
		}
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "drowsyctl bench: -memprofile:", err)
			os.Exit(1)
		}
		defer f.Close()
		// Bring the heap profile up to date so it reflects the benchmark
		// allocations, not whatever the last GC cycle happened to see.
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "drowsyctl bench: -memprofile:", err)
			os.Exit(1)
		}
	}()

	scalingSize := 256
	sweepCfg := exp.SimConfig{Hosts: 8, Slots: 4, Days: 14,
		Fractions: []float64{0.5, 1.0}, RebalanceEvery: 6}
	scenarioParams := scenario.Params{Hosts: 16, HorizonHours: 30 * 24}
	subHourlyParams := scenario.Params{Hosts: 16, HorizonHours: 14 * 24}
	// The acceptance scale of the fleet-wide Oasis column: 224 hosts,
	// ~500 VMs, one year (the family default).
	heteroParams := scenario.Params{}
	// The sharded-executor workload: one big fleet advanced by the
	// intra-run shard workers (every other entry parallelizes across
	// cells instead). Thousands of VMs, short horizon, drowsy only.
	fleetParams := scenario.Params{Hosts: 1024, HorizonHours: 7 * 24,
		ShardWorkers: runtime.GOMAXPROCS(0)}
	policyVMs := 2048
	if *quick {
		scalingSize = 64
		sweepCfg.Days = 3
		sweepCfg.Fractions = []float64{1.0}
		scenarioParams = scenario.Params{Hosts: 8, HorizonHours: 7 * 24}
		subHourlyParams = scenario.Params{Hosts: 8, HorizonHours: 7 * 24}
		heteroParams = scenario.Params{Hosts: 56, HorizonHours: 60 * 24}
		fleetParams.Hosts, fleetParams.HorizonHours = 128, 3*24
		policyVMs = 256
	}

	benches := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"full-week-simulation", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if exp.RunTestbedPolicy("drowsy-full", 7, true, true).EnergyKWh <= 0 {
					b.Fatal("no energy")
				}
			}
		}},
		{"simulation-sweep", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(exp.RunSimulation(sweepCfg)) == 0 {
					b.Fatal("no points")
				}
			}
		}},
		{fmt.Sprintf("consolidation-scaling-%d", scalingSize), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if exp.RunScaling([]int{scalingSize})[0].DrowsyIPs == 0 {
					b.Fatal("no evaluations")
				}
			}
		}},
		{"scenario-flash-crowd", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := scenario.RunFamily("flash-crowd", scenarioParams, scenario.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Policies) == 0 || rep.Policies[0].EnergyKWh <= 0 {
					b.Fatal("no scenario results")
				}
			}
		}},
		// The §VII scalability measurement at fleet scale: the flagship
		// year-horizon scenario's Oasis column alone. The exhaustive
		// pair scan cost ~25 s here and was excluded from the family;
		// the indexed, bound-pruned search must stay under 5 s.
		{"scenario-hetero-fleet-year-oasis", func(b *testing.B) {
			b.ReportAllocs()
			f, ok := scenario.Lookup("hetero-fleet-year")
			if !ok {
				b.Fatal("hetero-fleet-year not registered")
			}
			for i := 0; i < b.N; i++ {
				sc := f.Build(heteroParams)
				sc.Policies = []scenario.PolicyConfig{{Label: "oasis", Policy: "oasis", Suspend: true}}
				rep, err := scenario.Run(sc, scenario.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Policies) == 0 || rep.Policies[0].EnergyKWh <= 0 {
					b.Fatal("no oasis results")
				}
			}
		}},
		// The sharded executor at fleet scale: one drowsy column over a
		// ~4.5-VMs/host office fleet, host and observation phases fanned
		// out over -shard-workers goroutines (GOMAXPROCS here). The
		// other entries measure cross-cell parallelism; this one is the
		// intra-run axis the million-VM milestone relies on.
		{"fleet-scaling", func(b *testing.B) {
			b.ReportAllocs()
			f, ok := scenario.Lookup("diurnal-office")
			if !ok {
				b.Fatal("diurnal-office not registered")
			}
			for i := 0; i < b.N; i++ {
				sc := f.Build(fleetParams)
				sc.Policies = []scenario.PolicyConfig{{Label: "drowsy", Policy: "drowsy", Suspend: true, Grace: true}}
				sc.Tuning.ShardWorkers = fleetParams.ShardWorkers
				rep, err := scenario.Run(sc, scenario.Options{Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Policies) == 0 || rep.Policies[0].EnergyKWh <= 0 {
					b.Fatal("no fleet results")
				}
			}
		}},
		// The sub-hourly event mode's fleet-scale cost, tracked in the
		// BENCH_*.json trajectory alongside the hourly families.
		{"scenario-interactive-web", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := scenario.RunFamily("interactive-web", subHourlyParams, scenario.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Policies) == 0 || rep.Policies[0].EnergyKWh <= 0 {
					b.Fatal("no scenario results")
				}
			}
		}},
		// The lossy-delivery overhead entry: the same sub-hourly machinery
		// with the seeded drop schedule, retry bookkeeping and the relay
		// subnet on the wake path. Tracked so the netsim layer's per-wake
		// cost stays visible next to the perfect-delivery families.
		{"scenario-lossy-wan", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := scenario.RunFamily("lossy-wan", subHourlyParams, scenario.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Policies) == 0 || rep.Policies[0].WakeAttempts == 0 {
					b.Fatal("no lossy results")
				}
			}
		}},
		// The superlinear policy layer on its own: one policy column
		// over the §VII scaling population for a week.
		{"fleet-policy-drowsy-full", benchFleetPolicy("drowsy-full", policyVMs)},
		{"fleet-policy-oasis", benchFleetPolicy("oasis", policyVMs)},
		// The crash-safety codec at two fleet scales: the spill cost a
		// durable run pays at each month boundary (and the restore cost
		// replay pays per cell). Sizes are fixed — not scaled by -quick —
		// so the trajectory stays comparable across runs.
		{"checkpoint-roundtrip-1024", benchCheckpointRoundTrip(1024)},
		{"checkpoint-roundtrip-65536", benchCheckpointRoundTrip(65536)},
	}

	var out []BenchResult
	for _, bench := range benches {
		r := testing.Benchmark(bench.fn)
		out = append(out, BenchResult{
			Name:        bench.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "drowsyctl bench:", err)
		os.Exit(1)
	}

	if *compare != "" {
		regressed, err := compareBench(os.Stderr, *compare, out, *threshold)
		if err != nil {
			fmt.Fprintln(os.Stderr, "drowsyctl bench: -compare:", err)
			os.Exit(1)
		}
		if regressed {
			os.Exit(1)
		}
	}
}

// compareBench loads a baseline bench JSON and prints a per-benchmark
// delta table to w (stdout stays pure result JSON, so a compared run's
// output is still a valid future baseline). Returns true when any
// benchmark present in both runs regressed in ns/op by more than
// threshold percent. Benchmarks on only one side are listed but never
// fail the comparison — workloads are added and renamed over time, and
// bytes/allocs are informational (they are deterministic per workload,
// but a byte regression is a review concern, not a gate).
func compareBench(w io.Writer, baselinePath string, cur []BenchResult, threshold float64) (regressed bool, err error) {
	base, err := loadBench(baselinePath)
	if err != nil {
		return false, err
	}
	baseByName := make(map[string]BenchResult, len(base))
	for _, b := range base {
		baseByName[b.Name] = b
	}

	fmt.Fprintf(w, "\nbenchmark comparison vs %s (threshold %+.0f%% ns/op)\n", baselinePath, threshold)
	fmt.Fprintf(w, "%-36s %14s %14s %9s  %s\n", "name", "old ns/op", "new ns/op", "delta", "verdict")
	seen := make(map[string]bool, len(cur))
	for _, c := range cur {
		seen[c.Name] = true
		b, ok := baseByName[c.Name]
		if !ok {
			fmt.Fprintf(w, "%-36s %14s %14.0f %9s  new (no baseline)\n", c.Name, "-", c.NsPerOp, "-")
			continue
		}
		delta := 100 * (c.NsPerOp - b.NsPerOp) / b.NsPerOp
		verdict := "ok"
		if delta > threshold {
			verdict = "REGRESSED"
			regressed = true
		} else if delta < -threshold {
			verdict = "improved"
		}
		fmt.Fprintf(w, "%-36s %14.0f %14.0f %+8.1f%%  %s\n", c.Name, b.NsPerOp, c.NsPerOp, delta, verdict)
	}
	for _, b := range base {
		if !seen[b.Name] {
			fmt.Fprintf(w, "%-36s %14.0f %14s %9s  removed (baseline only)\n", b.Name, b.NsPerOp, "-", "-")
		}
	}
	if regressed {
		fmt.Fprintf(w, "FAIL: at least one benchmark regressed beyond %.0f%%\n", threshold)
	}
	return regressed, nil
}
