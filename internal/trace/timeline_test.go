package trace

import (
	"reflect"
	"sync"
	"testing"

	"drowsydc/internal/simtime"
	"drowsydc/internal/timeline"
)

// TestTimelineMemoMatchesDirect checks the private memo against direct
// expansion across hours, including level-zero hours (where the nil vs
// computed-empty distinction matters).
func TestTimelineMemoMatchesDirect(t *testing.T) {
	g := DailyBackup(0.6) // active 1 h/day: most hours expand to nothing
	m := NewTimelineMemo(0xabc, g)
	for pass := 0; pass < 2; pass++ { // second pass reads pure memo hits
		for h := simtime.Hour(0); h < 3*24; h++ {
			level := g.Activity(h)
			got := m.Bursts(h)
			want := timeline.Expand(0xabc, h, level)
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("pass %d hour %d: memo %v, direct %v", pass, h, got, want)
			}
		}
	}
}

// constSource is a Source defined at every hour, negative ones included.
type constSource float64

func (c constSource) Activity(simtime.Hour) float64 { return float64(c) }

// TestTimelineMemoNegativeHour checks the passthrough.
func TestTimelineMemoNegativeHour(t *testing.T) {
	m := NewTimelineMemo(7, constSource(0.5))
	got := m.Bursts(-5)
	want := timeline.Expand(7, -5, 0.5)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("negative hour: memo %v, direct %v", got, want)
	}
}

// TestSharedTimelineMatchesDirect checks the concurrent store against
// direct expansion inside and beyond the horizon.
func TestSharedTimelineMatchesDirect(t *testing.T) {
	g := RealTrace(1)
	src := NewShared(g, 600)
	st := NewSharedTimeline(0x5eed, src, 600)
	if st.Seed() != 0x5eed {
		t.Fatalf("seed %#x", st.Seed())
	}
	for _, h := range []simtime.Hour{0, 13, 511, 512, 599, 600, 1000} {
		got := st.Bursts(h)
		want := timeline.Expand(0x5eed, h, g.Activity(h))
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("hour %d: shared %v, direct %v", h, got, want)
		}
	}
}

// TestSharedTimelineConcurrentReaders hammers one store from many
// goroutines (run under -race in CI); all readers must observe the same
// published chunks as a serial walk.
func TestSharedTimelineConcurrentReaders(t *testing.T) {
	g := RealTrace(2)
	src := NewShared(g, 2048)
	st := NewSharedTimeline(0x77, src, 2048)
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for h := simtime.Hour(w); h < 2048; h += 5 {
				got := st.Bursts(h)
				want := timeline.Expand(0x77, h, g.Activity(h))
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					select {
					case errs <- "mismatch":
					default:
					}
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
}

// TestSharedTimelineNilSource pins the constructor guard.
func TestSharedTimelineNilSource(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSharedTimeline(nil src) did not panic")
		}
	}()
	NewSharedTimeline(1, nil, 100)
}
