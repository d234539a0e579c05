package main

import (
	"bytes"
	"crypto/sha256"
	"testing"
)

// TestSimGateRejectsOneChangedByte runs the event-lossy workload's
// scenario once: its report must match the pinned digest, and the same
// report with any one byte changed must not.
func TestSimGateRejectsOneChangedByte(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the event-lossy scenario (a few seconds)")
	}
	sc, err := eventLossy.build()
	if err != nil {
		t.Fatal(err)
	}
	body, err := reportBytes(sc, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reportOK(body, eventLossy.digest) {
		t.Fatalf("event-lossy report does not match its pinned digest")
	}
	for _, i := range []int{0, len(body) / 2, len(body) - 1} {
		changed := bytes.Clone(body)
		changed[i] ^= 1
		if reportOK(changed, eventLossy.digest) {
			t.Errorf("report with byte %d changed passed the gate", i)
		}
	}
}

// TestMixGateRejectsOneChangedByte feeds verify a hit that differs from
// its spec's first response by one byte, a timeseries tail that
// differs from the plain run's, and a checked miss whose body differs
// from scenario.Run by one byte: each must be marked failed, and the
// untouched outcomes must not.
func TestMixGateRejectsOneChangedByte(t *testing.T) {
	runBody := []byte(`{"family":"diurnal-office","hosts":4,"horizon_days":2}`)
	want, err := directReport(runBody, 1)
	if err != nil {
		t.Fatal(err)
	}
	changed := bytes.Clone(want)
	changed[len(changed)/2] ^= 1

	run := request{kind: kindRun, body: runBody}
	checked := run
	checked.checked = true
	sweep := request{kind: kindSweep, body: []byte(`{"family":"vm-churn","param":"grace","values":[0,30]}`)}
	ts := request{kind: kindTimeseries, body: runBody}
	sweepBytes := []byte("sweep report\n")
	sweepChanged := bytes.Clone(sweepBytes)
	sweepChanged[0] ^= 1

	l := &loop{outcomes: []outcome{
		{req: checked, sum: sha256.Sum256(want), body: want}, // 0: reference, correct
		{req: run, sum: sha256.Sum256(want)},                 // 1: good hit
		{req: sweep, sum: sha256.Sum256(sweepBytes)},         // 2: sweep reference
		{req: sweep, sum: sha256.Sum256(sweepChanged)},       // 3: bad hit
		{req: ts, sum: sha256.Sum256(want)},                  // 4: good timeseries tail
		{req: ts, sum: sha256.Sum256(changed)},               // 5: bad timeseries tail
	}}
	if err := l.verify(runConfig{workers: 1}); err != nil {
		t.Fatal(err)
	}
	wantFailed := []bool{false, false, false, true, false, true}
	for i, o := range l.outcomes {
		if o.failed != wantFailed[i] {
			t.Errorf("outcome %d (%s): failed = %v, want %v", i, o.req.kind, o.failed, wantFailed[i])
		}
	}

	l = &loop{outcomes: []outcome{{req: checked, sum: sha256.Sum256(changed), body: changed}}}
	if err := l.verify(runConfig{workers: 1}); err != nil {
		t.Fatal(err)
	}
	if !l.outcomes[0].failed {
		t.Error("checked miss one byte off scenario.Run passed the gate")
	}
}
