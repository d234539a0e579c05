// Command perfbench is the repository benchmark. It runs one workload
// from a single process, checks every output it produces against a
// reference, and prints its metrics by name with their units; the last
// line of standard output is the result as one JSON object.
//
//	perfbench --workload fleet-week --seed 1 --seconds 25 --trace 0
//	perfbench compare old.json new.json
//
// With --trace 0 it reports the end-to-end metrics, measured with every
// probe off; with --trace 1 it makes a separate traced run and reports
// the per-layer metrics. README.md maps each per-layer metric to the
// end-to-end metric it should move. perfbench/run.sh builds the binary
// from source and is the entry point BENCHMARK.json names.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's verdict: whether every output was correct,
// how many operations were attempted and failed, and the metrics.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what a workload receives from the command line.
type runConfig struct {
	seed    uint64
	seconds float64
	traced  bool
	// workers bounds every pool the benchmark controls: concurrently
	// run cells and closed-loop clients. It is the machine's CPU count
	// (capped by GOMAXPROCS), so the benchmark never oversubscribes.
	workers int
	// tmpDir is where the benchmark's scratch state lives (the drowsyd
	// state dir, the temp journal); it sits inside the checkout.
	tmpDir string
	// log receives the human-readable lines printed ahead of the
	// result.
	log io.Writer
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(runConfig) (*result, error){
	"fleet-week":  fleetWeek.run,
	"event-lossy": eventLossy.run,
	"drowsyd-mix": runMix,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareCmd(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are drawn from")
	secs := fs.Float64("seconds", 25, "how long the measured loop runs")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, tracing off; 1 = per-layer metrics from a traced run")
	out := fs.String("out", "", "also write the result and its machine fingerprint to this JSON file (input of `perfbench compare`)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*workload]
	if !ok || fs.NArg() != 0 || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	tmp := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg := runConfig{
		seed:    *seed,
		seconds: *secs,
		traced:  *trace == 1,
		workers: min(runtime.NumCPU(), runtime.GOMAXPROCS(0)),
		tmpDir:  tmp,
		log:     stdout,
	}
	fp := currentFingerprint(*seed)
	fpJSON, _ := json.Marshal(fp) // plain struct of strings and ints: cannot fail
	fmt.Fprintf(stdout, "fingerprint %s\n", fpJSON)

	res, err := drive(cfg)
	if err == nil {
		want := endToEndMetrics
		if cfg.traced {
			want = layerMetrics
		}
		err = res.checkNames(want)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *out != "" {
		rec := record{Workload: *workload, Trace: *trace, Fingerprint: fp, Result: *res}
		if err := writeRecord(*out, rec); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: encoding result:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: the run failed its checks (%d of %d operations failed)\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// newResult builds a result from the operation counts; correctness is
// all-or-nothing.
func newResult(attempted, failed int) *result {
	return &result{
		Correct:   failed == 0 && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
}

func (r *result) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

// setOKFrac sets ok_frac, the share of attempted operations that
// succeeded with a correct output: the complement of the failure
// fraction, reported this way round so the metric is never zero.
func (r *result) setOKFrac() {
	r.set("ok_frac", "frac", 1-float64(r.Failed)/float64(r.Attempted))
}

// checkNames verifies that the result carries exactly the wanted
// metrics, with their units: the set BENCHMARK.json declares.
func (r *result) checkNames(want []namedMetric) error {
	if len(r.Metrics) != len(want) {
		return fmt.Errorf("result has %d metrics, want %d", len(r.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := r.Metrics[m.name]
		if !ok || got.Unit != m.unit {
			return fmt.Errorf("result lacks metric %s in %s", m.name, m.unit)
		}
	}
	return nil
}
