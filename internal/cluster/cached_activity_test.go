package cluster

import (
	"testing"

	"drowsydc/internal/simtime"
	"drowsydc/internal/trace"
)

// TestVMActivityAllocationFree guards the steady-state activity path.
func TestVMActivityAllocationFree(t *testing.T) {
	v := NewVM(0, "v", KindLLMI, 4, 2, trace.RealTrace(1))
	for h := simtime.Hour(0); h < 512; h++ {
		v.Activity(h)
	}
	h := simtime.Hour(0)
	if allocs := testing.AllocsPerRun(1000, func() {
		_ = v.Activity(h % 512)
		h++
	}); allocs != 0 {
		t.Fatalf("cached VM.Activity allocates %.1f per call", allocs)
	}
}
