package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"drowsydc/internal/core"
	"drowsydc/internal/dcsim"
	"drowsydc/internal/scenario"
	"drowsydc/internal/trace"
)

// namedMetric is a metric name and its unit.
type namedMetric struct{ name, unit string }

// endToEndMetrics are what every workload reports under --trace 0.
var endToEndMetrics = []namedMetric{
	{"op_cpu_ms", "ms"},
	{"heap_mb", "MB"},
	{"ok_frac", "frac"},
	{"setup_s", "s"},
}

// layerMetrics are what every workload reports under --trace 1; a layer
// the workload does not run reads 0 (README.md lists which workload
// moves which metric).

var layerMetrics = []namedMetric{
	{"dcsim.pre_s", "s"},
	{"policy.drowsy_s", "s"},
	{"policy.neat-s3_s", "s"},
	{"policy.neat_s", "s"},
	{"policy.oasis_s", "s"},
	{"oasis.pair_evaluations", "count"},
	{"dcsim.host_s", "s"},
	{"dcsim.event_hours", "count"},
	{"suspend.suspends", "count"},
	{"suspend.resumes", "count"},
	{"waking.scheduled_wakes", "count"},
	{"waking.packet_wakes", "count"},
	{"netsim.wake_attempts", "count"},
	{"netsim.wake_retries", "count"},
	{"netsim.lost_wakes", "count"},
	{"netsim.relayed_wakes", "count"},
	{"netsim.retry_frac", "frac"},
	{"dcsim.observe_s", "s"},
	{"core.observe_fast_frac", "frac"},
	{"dcsim.reduce_s", "s"},
	{"dcsim.hours", "count"},
	{"scenario.cell_other_s", "s"},
	{"trace.shared_publishes", "count"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"server.decode_ms", "ms"},
	{"server.simulate_ms", "ms"},
	{"server.encode_ms", "ms"},
	{"checkpoint.journal_ms", "ms"},
	{"checkpoint.spills", "count"},
	{"checkpoint.spill_mb", "MB"},
	{"server.overhead_ms", "ms"},
	{"server.hits", "count"},
	{"server.misses", "count"},
	{"server.joins", "count"},
	{"server.runs", "count"},
	{"server.shed", "count"},
	{"hit_p50_ms", "ms"},
	{"hit_p99_ms", "ms"},
	{"miss_p50_ms", "ms"},
	{"miss_p90_ms", "ms"},
	{"req_per_s", "1/s"},
	{"hit_samples", "count"},
	{"miss_samples", "count"},
	{"tracing.overhead_frac", "frac"},
	{"dcsim.phase_cover_frac", "frac"},
}

// Phase cover tolerance: the four executor phases plus the per-cell
// remainder (materialize, runner set-up, collect) must account for at
// least this share of the serial traced run's wall time, and can never
// exceed it. The rest is Run's own work outside any cell (validation,
// store set-up, report assembly).
const (
	minPhaseCover = 0.95
	maxPhaseCover = 1.0 + 1e-9
)

// layerValues accumulates per-layer numbers, keyed by metric name.
type layerValues map[string]float64

// setLayers copies every per-layer metric into the result, in units of
// the layerMetrics table, reading 0 for layers the workload never ran.
func (r *result) setLayers(v layerValues) {
	for _, m := range layerMetrics {
		r.set(m.name, m.unit, v[m.name])
	}
}

// cellTrace sums one policy cell's flight-recorder samples.
type cellTrace struct {
	policy                               string
	pre, host, observe, reduce           int64
	hours, eventHours, suspends, resumes int
	scheduled, packet, pairEvals         uint64
	attempts, retries, lost, relayed     uint64
}

func (c *cellTrace) ObserveHour(s dcsim.HourSample) {
	c.pre += s.PrePhaseNanos
	c.host += s.HostPhaseNanos
	c.observe += s.ObservePhaseNanos
	c.reduce += s.ReducePhaseNanos
	c.hours++
	c.eventHours += s.EventHours
	c.suspends += s.Suspends
	c.resumes += s.Resumes
	c.scheduled += s.ScheduledWakes
	c.packet += s.PacketWakes
	c.pairEvals += s.PairEvaluations
	c.attempts += s.WakeAttempts
	c.retries += s.WakeRetries
	c.lost += s.LostWakes
	c.relayed += s.RelayedWakes
}

// runTrace is the traced side of a serial scenario run: per-cell probe
// sums plus the wall-clock instants Progress reports cells done at.
type runTrace struct {
	mu    sync.Mutex
	cells []*cellTrace
	done  []time.Time
}

// options returns the traced run's options: serial cells (so Progress
// instants bound each cell's wall time), every probe on.
func (t *runTrace) options(base scenario.Options) scenario.Options {
	base.Workers = 1
	base.ProbeTimings = true
	base.Probe = func(cell int, policy string) dcsim.Probe {
		c := &cellTrace{policy: policy}
		t.cells = append(t.cells, c) // minted serially, in cell order
		return c
	}
	base.Progress = func(done, total int) {
		t.mu.Lock()
		t.done = append(t.done, time.Now())
		t.mu.Unlock()
	}
	return base
}

// tracedRun runs sc once with the trace attached and folds the samples,
// the cell instants and the process-wide layer counters into v
// (adding, so several runs of one workload accumulate).
func tracedRun(sc scenario.Scenario, base scenario.Options, v layerValues) (*scenario.Report, time.Duration, error) {
	var t runTrace
	opt := t.options(base)
	fast0, exact0 := core.ObserveFastPathCount(), core.ObserveExactCount()
	pub0 := trace.SharedPublishCount()
	start := time.Now()
	rep, err := scenario.Run(sc, opt)
	wall := time.Since(start)
	if err != nil {
		return nil, wall, err
	}
	v["core.observe_fast"] += float64(core.ObserveFastPathCount() - fast0)
	v["core.observe_exact"] += float64(core.ObserveExactCount() - exact0)
	v["trace.shared_publishes"] += float64(trace.SharedPublishCount() - pub0)

	var phases int64
	for _, c := range t.cells {
		phases += c.pre + c.host + c.observe + c.reduce
		v["dcsim.pre_s"] += float64(c.pre) / 1e9
		v["policy."+c.policy+"_s"] += float64(c.pre) / 1e9
		v["dcsim.host_s"] += float64(c.host) / 1e9
		v["dcsim.observe_s"] += float64(c.observe) / 1e9
		v["dcsim.reduce_s"] += float64(c.reduce) / 1e9
		v["dcsim.hours"] += float64(c.hours)
		v["dcsim.event_hours"] += float64(c.eventHours)
		v["suspend.suspends"] += float64(c.suspends)
		v["suspend.resumes"] += float64(c.resumes)
		v["waking.scheduled_wakes"] += float64(c.scheduled)
		v["waking.packet_wakes"] += float64(c.packet)
		v["oasis.pair_evaluations"] += float64(c.pairEvals)
		v["netsim.wake_attempts"] += float64(c.attempts)
		v["netsim.wake_retries"] += float64(c.retries)
		v["netsim.lost_wakes"] += float64(c.lost)
		v["netsim.relayed_wakes"] += float64(c.relayed)
	}
	// Cells run serially, so the last Progress instant is the end of
	// the last cell; everything from Run's start to it is cell time.
	cellWall := 0.0
	if n := len(t.done); n > 0 {
		cellWall = t.done[n-1].Sub(start).Seconds()
	}
	v["scenario.cell_other_s"] += cellWall - float64(phases)/1e9
	v["traced_wall_s"] += wall.Seconds()
	v["cell_wall_s"] += cellWall
	return rep, wall, nil
}

// finishTrace turns the sums of several traced runs into per-run
// means and derives the ratio metrics.
func (v layerValues) finishTrace(runs int) {
	for k := range v {
		v[k] /= float64(runs)
	}
	if n := v["core.observe_fast"] + v["core.observe_exact"]; n > 0 {
		v["core.observe_fast_frac"] = v["core.observe_fast"] / n
	}
	if v["netsim.wake_attempts"] > 0 {
		v["netsim.retry_frac"] = v["netsim.wake_retries"] / v["netsim.wake_attempts"]
	}
	if v["traced_wall_s"] > 0 {
		v["dcsim.phase_cover_frac"] = v["cell_wall_s"] / v["traced_wall_s"]
	}
}

// phaseCoverOK applies the stated tolerance.
func (v layerValues) phaseCoverOK() bool {
	c := v["dcsim.phase_cover_frac"]
	return c >= minPhaseCover && c <= maxPhaseCover
}

// runtimeCounters reads the process-wide allocation and GC totals.
func runtimeCounters() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// heapSampler tracks the peak live heap: the bytes the garbage
// collector found reachable at the end of each cycle. Unlike the
// in-use heap, which swings with where a sample falls between two
// collections, the live heap at each cycle is set by the program's
// data, so its peak repeats from run to run.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64 // written by the sampler goroutine, read after done closes
}

const heapSampleEvery = 2 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// liveHeapMB collects garbage and returns the live heap it marked, in
// MiB.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// stopMB stops the sampler, waits for it and returns the peak in MiB.
func (h *heapSampler) stopMB() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}
