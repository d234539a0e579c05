package cluster

import (
	"reflect"
	"testing"

	"drowsydc/internal/simtime"
	"drowsydc/internal/timeline"
	"drowsydc/internal/trace"
)

// TestVMBurstsEquivalence checks that both timeline access paths of a
// VM — private memo and shared store — yield bit-identical bursts, equal
// to the direct expansion.
func TestVMBurstsEquivalence(t *testing.T) {
	g := trace.RealTrace(1)
	seed := timeline.MixSeed(3, 0x0ff1ce, 0)
	horizon := simtime.Hour(7 * 24)

	private := NewVM(0, "p", KindLLMI, 4, 2, g)
	private.SetTimelineSeed(seed)

	sharedTrace := trace.NewShared(g, horizon)
	sharedTL := trace.NewSharedTimeline(seed, sharedTrace, horizon)
	shared := NewVM(0, "s", KindLLMI, 4, 2, g)
	shared.SetTimelineSeed(seed)
	shared.SetStores(sharedTrace, sharedTL)

	for h := simtime.Hour(0); h < horizon; h++ {
		a, b, c := private.Bursts(h), shared.Bursts(h), timeline.Expand(seed, h, g.Activity(h))
		if len(a) == 0 && len(b) == 0 && len(c) == 0 {
			continue
		}
		if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(a, c) {
			t.Fatalf("hour %d: private %v shared %v direct %v", h, a, b, c)
		}
		if timeline.BusySeconds(a) == 0 {
			t.Fatalf("hour %d: active hour expanded to zero busy seconds", h)
		}
	}
}

// TestVMTimelineSeedDefault pins that the default seed is a
// deterministic function of the VM ID, and that explicit seeds detach
// stale memos.
func TestVMTimelineSeedDefault(t *testing.T) {
	g := trace.LLMU(1)
	a := NewVM(7, "a", KindLLMU, 4, 2, g)
	b := NewVM(7, "b", KindLLMU, 4, 2, g)
	if a.TimelineSeed() != b.TimelineSeed() {
		t.Fatal("same ID, different default timeline seeds")
	}
	if NewVM(8, "c", KindLLMU, 4, 2, g).TimelineSeed() == a.TimelineSeed() {
		t.Fatal("different IDs share a default timeline seed")
	}
	before := append([]timeline.Burst(nil), a.Bursts(10)...)
	a.SetTimelineSeed(a.TimelineSeed() + 1)
	after := a.Bursts(10)
	if reflect.DeepEqual(before, after) {
		t.Fatal("reseeding did not change the timeline")
	}
}

// TestVMSharedTimelineSeedMismatch pins the wiring guard: attaching a
// shared store carrying a different seed would silently replace the
// workload's within-hour shape, so it panics.
func TestVMSharedTimelineSeedMismatch(t *testing.T) {
	g := trace.RealTrace(2)
	v := NewVM(1, "v", KindLLMI, 4, 2, g)
	v.SetTimelineSeed(100)
	st := trace.NewSharedTimeline(101, trace.NewShared(g, 24), 24)
	defer func() {
		if recover() == nil {
			t.Fatal("seed mismatch did not panic")
		}
	}()
	v.SetStores(trace.NewShared(g, 24), st)
}

// TestVMReseedDropsSharedTimeline pins that a reseed detaches every
// attached timeline memo, shared stores included: bursts must follow
// the new seed, never replay the shared store's old one.
func TestVMReseedDropsSharedTimeline(t *testing.T) {
	g := trace.RealTrace(1)
	const horizon = 7 * 24
	v := NewVM(0, "v", KindLLMI, 4, 2, g)
	v.SetTimelineSeed(11)
	src := trace.NewShared(g, horizon)
	v.SetStores(src, trace.NewSharedTimeline(11, src, horizon))
	v.Bursts(0)
	v.SetTimelineSeed(22)
	active := 0
	for h := simtime.Hour(0); h < horizon; h++ {
		want := timeline.Expand(22, h, v.Activity(h))
		got := v.Bursts(h)
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		active++
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("hour %d after reseed: got %v, want %v", h, got, want)
		}
	}
	if active == 0 {
		t.Fatal("no active hour; the test checks nothing")
	}
}
