package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"time"

	"drowsydc/internal/scenario"
)

// simWorkload is a simulator workload: one registered scenario family
// at a fixed scale, run end to end through scenario.Run exactly as
// `drowsyctl scenario run` runs it. Its inputs are fully determined by
// the family and scale, so --seed does not change them.
type simWorkload struct {
	name   string
	family string
	hosts  int
	days   int
	// serial runs the cells one at a time instead of on every CPU.
	serial bool
	// digest is the SHA-256 of the report JSON (Report.WriteJSON, the
	// CLI's bytes), pinned from the code this benchmark was written
	// against. Every run must reproduce it.
	digest string
}

var (
	// fleetWeek is dominated by the superlinear policy layer (Oasis and
	// Drowsy rebalancing over ~2.5k VMs), with the hourly host play a
	// minor share.
	fleetWeek = simWorkload{
		name: "fleet-week", family: "diurnal-office", hosts: 512, days: 7,
		digest: "2c4e642c4c9b0fec4b9403fd33d427f54f93aa902486b5926903a02da34b3f74",
	}
	// eventLossy is the opposite mix: event-resolution host play with
	// lossy Wake-on-LAN on a small fleet, so the policy layer is a
	// sliver of the run. Its cells run serially: the host play is
	// single-threaded work, and on the reference machine two cells side
	// by side slow each other down by an amount that varies from run to
	// run (per-run CPU time varied about 40% more in parallel).
	eventLossy = simWorkload{
		name: "event-lossy", family: "lossy-wan", hosts: 64, days: 14, serial: true,
		digest: "1aaac8655c94bcfd20179d0787be055d83112de8c34ae03112a52632e0a110f6",
	}
)

// setupReps is how many times the set-up is timed, each from a
// collected heap, after one untimed warm-up (the first pays for the
// process's cold heap); setup_s is the median CPU time.
const setupReps = 31

// build turns the workload's spec into a validated scenario.
func (w simWorkload) build() (scenario.Scenario, error) {
	sc, err := scenario.BuildFamily(w.family, scenario.Params{Hosts: w.hosts, HorizonHours: w.days * 24})
	if err != nil {
		return sc, err
	}
	return sc, sc.Validate()
}

// setUp times everything a run does before its first simulated hour:
// build and validate the scenario, then scenario.Run under an already
// cancelled context, which materializes every cell (fleet, VMs, trace
// stores), constructs its runner and places the VMs, and stops each
// cell at the hour-0 boundary. It returns the scenario and the median
// CPU time of setupReps timed repetitions.
func (w simWorkload) setUp(workers int) (scenario.Scenario, float64, error) {
	var sc scenario.Scenario
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	times := make([]time.Duration, 0, setupReps+1)
	for range setupReps + 1 {
		runtime.GC()
		c := cpuTime()
		var err error
		if sc, err = w.build(); err != nil {
			return sc, 0, fmt.Errorf("%s: %w", w.name, err)
		}
		if _, err := scenario.Run(sc, scenario.Options{Workers: workers, Context: cancelled}); !errors.Is(err, context.Canceled) {
			return sc, 0, fmt.Errorf("%s: set-up run returned %v, want context.Canceled", w.name, err)
		}
		times = append(times, cpuTime()-c)
	}
	return sc, median(seconds(times[1:])), nil
}

// reportOK is the correctness gate: the report's CLI bytes must hash to
// the pinned digest.
func reportOK(body []byte, digest string) bool {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:]) == digest
}

// check encodes a run's report and applies the gate.
func (w simWorkload) check(rep *scenario.Report, err error) bool {
	if err != nil {
		return false
	}
	var buf bytes.Buffer
	if rep.WriteJSON(&buf) != nil {
		return false
	}
	return reportOK(buf.Bytes(), w.digest)
}

// run measures the workload for cfg.seconds: the untraced end-to-end
// loop, or with cfg.traced the per-layer runs.
func (w simWorkload) run(cfg runConfig) (*result, error) {
	workers := cfg.workers
	if w.serial {
		workers = 1
	}
	sc, setup, err := w.setUp(workers)
	if err != nil {
		return nil, err
	}
	if cfg.traced {
		return w.runTraced(cfg, sc)
	}
	var walls, cpus []time.Duration
	var peaks []float64
	failed := 0
	start := time.Now()
	for len(walls) == 0 || time.Since(start).Seconds() < cfg.seconds {
		// Each run starts from a collected heap, as a run in a fresh
		// process does, so it pays for no garbage the previous run left.
		runtime.GC()
		heap := startHeapSampler()
		t, c := time.Now(), cpuTime()
		rep, err := scenario.Run(sc, scenario.Options{Workers: workers})
		walls, cpus = append(walls, time.Since(t)), append(cpus, cpuTime()-c)
		peaks = append(peaks, heap.stopMB())
		if !w.check(rep, err) {
			failed++
		}
	}

	res := newResult(len(walls), failed)
	res.set("op_cpu_ms", "ms", 1000*median(seconds(cpus)))
	res.set("heap_mb", "MB", sum(peaks)/float64(len(peaks)))
	res.setOKFrac()
	res.set("setup_s", "s", setup)
	ws, cs := seconds(walls), seconds(cpus)
	fmt.Fprintf(cfg.log, "%s: %d runs of %s (%d hosts, %d VMs, %d days) on %d cell workers; per run, wall s q1 %.4f median %.4f q3 %.4f, CPU s q1 %.4f median %.4f q3 %.4f, peak live heap MB q1 %.2f median %.2f q3 %.2f mean %.2f\n",
		w.name, len(walls), w.family, sc.TotalHosts(), sc.SimulatedVMs(), w.days, workers,
		quantile(ws, 0.25), median(ws), quantile(ws, 0.75), quantile(cs, 0.25), median(cs), quantile(cs, 0.75),
		quantile(peaks, 0.25), median(peaks), quantile(peaks, 0.75), sum(peaks)/float64(len(peaks)))
	return res, nil
}

// runTraced alternates untraced and traced serial runs for cfg.seconds
// (at least one pair). The untraced serial runs are the baseline of
// the tracing overhead and carry the allocation counters.
func (w simWorkload) runTraced(cfg runConfig, sc scenario.Scenario) (*result, error) {
	v := layerValues{}
	var untraced, traced []time.Duration
	var allocMB, gcCycles []float64
	attempted, failed := 0, 0
	start := time.Now()
	for len(traced) == 0 || time.Since(start).Seconds() < cfg.seconds {
		a0, g0 := runtimeCounters()
		t := time.Now()
		rep, err := scenario.Run(sc, scenario.Options{Workers: 1})
		untraced = append(untraced, time.Since(t))
		a1, g1 := runtimeCounters()
		allocMB = append(allocMB, float64(a1-a0)/(1<<20))
		gcCycles = append(gcCycles, float64(g1-g0))
		attempted++
		if !w.check(rep, err) {
			failed++
		}

		rep, wall, err := tracedRun(sc, scenario.Options{}, v)
		traced = append(traced, wall)
		attempted++
		if !w.check(rep, err) {
			failed++
		}
	}
	v.finishTrace(len(traced))
	v["runtime.alloc_mb"] = median(allocMB)
	v["runtime.gc_cycles"] = median(gcCycles)
	v["tracing.overhead_frac"] = median(seconds(traced))/median(seconds(untraced)) - 1

	res := newResult(attempted, failed)
	res.setLayers(v)
	fmt.Fprintf(cfg.log, "%s: %d untraced + %d traced serial runs, phase cover %.4f (tolerance %.2f..1), tracing overhead %+.4f\n",
		w.name, len(untraced), len(traced), v["dcsim.phase_cover_frac"], minPhaseCover, v["tracing.overhead_frac"])
	if !v.phaseCoverOK() {
		fmt.Fprintf(cfg.log, "%s: traced phases do not add up to the run's wall time\n", w.name)
		res.Correct = false
	}
	return res, nil
}
