package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
)

// fingerprint identifies the machine, toolchain and code a result was
// measured with. Two results are comparable only when their machine
// and toolchain fields agree; Commit and Seed say what was measured.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
}

func currentFingerprint(seed uint64) fingerprint {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     commit,
		Seed:       seed,
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo, falling
// back to the architecture where that file does not exist.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// machineMismatch lists the fingerprint fields that make two results
// incomparable: a different CPU, core count, scheduler width or
// toolchain changes the numbers by more than any code change under
// test.
func machineMismatch(a, b fingerprint) []string {
	var diffs []string
	if a.CPU != b.CPU {
		diffs = append(diffs, fmt.Sprintf("cpu %q vs %q", a.CPU, b.CPU))
	}
	if a.NProc != b.NProc {
		diffs = append(diffs, fmt.Sprintf("nproc %d vs %d", a.NProc, b.NProc))
	}
	if a.GOMAXPROCS != b.GOMAXPROCS {
		diffs = append(diffs, fmt.Sprintf("gomaxprocs %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS))
	}
	if a.Go != b.Go {
		diffs = append(diffs, fmt.Sprintf("go %s vs %s", a.Go, b.Go))
	}
	return diffs
}

// record is the file `--out` writes: one run's result with the
// fingerprint it was measured under.
type record struct {
	Workload    string      `json:"workload"`
	Trace       int         `json:"trace"`
	Fingerprint fingerprint `json:"fingerprint"`
	Result      result      `json:"result"`
}

func writeRecord(path string, rec record) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing result: %w", err)
	}
	return nil
}

func readRecord(path string) (record, error) {
	var rec record
	data, err := os.ReadFile(path)
	if err != nil {
		return rec, fmt.Errorf("reading result: %w", err)
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return rec, fmt.Errorf("decoding %s: %w", path, err)
	}
	return rec, nil
}

// compareCmd prints the metric-by-metric change from one recorded run
// to another. A pair measured on different machines or toolchains, or
// of different workloads or trace modes, is flagged and not scored
// (exit code 3).
func compareCmd(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare OLD.json NEW.json")
		return 2
	}
	old, err := readRecord(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cur, err := readRecord(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	diffs := machineMismatch(old.Fingerprint, cur.Fingerprint)
	if old.Workload != cur.Workload || old.Trace != cur.Trace {
		diffs = append(diffs, fmt.Sprintf("workload %s/trace %d vs %s/trace %d",
			old.Workload, old.Trace, cur.Workload, cur.Trace))
	}
	if len(diffs) > 0 {
		fmt.Fprintf(stdout, "incomparable, not scored: %s\n", strings.Join(diffs, "; "))
		return 3
	}
	fmt.Fprintf(stdout, "%s (trace %d): commit %s -> %s, correct %v -> %v\n",
		cur.Workload, cur.Trace, old.Fingerprint.Commit, cur.Fingerprint.Commit,
		old.Result.Correct, cur.Result.Correct)
	names := make([]string, 0, len(cur.Result.Metrics))
	for n := range cur.Result.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		a, okA := old.Result.Metrics[n]
		b := cur.Result.Metrics[n]
		switch {
		case !okA:
			fmt.Fprintf(stdout, "  %-28s %14s %14.6g %s (new)\n", n, "-", b.Value, b.Unit)
		case a.Value == 0:
			fmt.Fprintf(stdout, "  %-28s %14.6g %14.6g %s\n", n, a.Value, b.Value, b.Unit)
		default:
			change := 100 * (b.Value - a.Value) / math.Abs(a.Value)
			fmt.Fprintf(stdout, "  %-28s %14.6g %14.6g %s %+7.2f%%\n", n, a.Value, b.Value, b.Unit, change)
		}
	}
	return 0
}
