package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestCompareRefusesOtherMachines scores a pair that differs only in
// commit and refuses one whose machine fingerprint differs.
func TestCompareRefusesOtherMachines(t *testing.T) {
	dir := t.TempDir()
	fp := fingerprint{CPU: "cpu A", NProc: 2, GOMAXPROCS: 2, Go: "go1.24.0", Commit: "old", Seed: 1}
	write := func(name string, fp fingerprint, cpuMS float64) string {
		r := result{Correct: true, Attempted: 1, Metrics: map[string]metric{"op_cpu_ms": {Value: cpuMS, Unit: "ms"}}}
		path := filepath.Join(dir, name)
		if err := writeRecord(path, record{Workload: "fleet-week", Fingerprint: fp, Result: r}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	old := write("old.json", fp, 4)
	newFP := fp
	newFP.Commit = "new"
	same := write("same.json", newFP, 3)
	newFP.CPU, newFP.NProc = "cpu B", 4
	other := write("other.json", newFP, 3)

	var out bytes.Buffer
	if code := compareCmd([]string{old, same}, &out, &out); code != 0 || !strings.Contains(out.String(), "-25.00%") {
		t.Errorf("same machine: exit %d, output %q; want 0 and a -25%% change", code, out.String())
	}
	out.Reset()
	if code := compareCmd([]string{old, other}, &out, &out); code != 3 || !strings.Contains(out.String(), "not scored") ||
		strings.Contains(out.String(), "%") {
		t.Errorf("other machine: exit %d, output %q; want 3 and no score", code, out.String())
	}
}
