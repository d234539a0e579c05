package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"drowsydc/internal/checkpoint"
	"drowsydc/internal/scenario"
	"drowsydc/internal/server"
	"drowsydc/internal/simtime"
)

// checkpointEveryHours is the daemon's spill cadence in the mix: weekly,
// so misses longer than a week spill and shorter ones do not.
const checkpointEveryHours = 7 * 24

// mixSetupReps is how many daemon start-ups setup_s takes the median
// of, after one untimed warm-up. A start-up is a millisecond of file
// creation, fsync and loopback round trips, each noisy on a shared
// machine, so it takes many to pin the median down.
const mixSetupReps = 51

// heapWindow is the request count after which heap_mb is read. The
// daemon's result and trace caches keep every distinct spec it served,
// so its heap grows with the misses; read after a fixed prefix of the
// sequence, with no job in flight and right after a collection, the
// live heap is what those requests left behind, however fast or slow
// the run that served them. The loop always runs at least this far,
// and the prefix is long enough that the seed's particular specs move
// the figure little.
const heapWindow = 2000

// daemon is an in-process drowsyd behind a loopback listener.
type daemon struct {
	srv    *server.Server
	http   *http.Server
	base   string
	served chan error
}

// startDaemon starts drowsyd on stateDir and returns once /readyz
// answers 200.
func startDaemon(stateDir string) (*daemon, error) {
	srv, err := server.New(server.Config{StateDir: stateDir, CheckpointEveryHours: checkpointEveryHours})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	d := &daemon{
		srv:    srv,
		http:   &http.Server{Handler: srv.Handler()},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { d.served <- d.http.Serve(ln) }()
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := http.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining a probe response
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop() //nolint:errcheck // already failing
			return nil, errors.New("drowsyd did not become ready")
		}
		time.Sleep(100 * time.Microsecond) // fine-grained: the wait is part of setup_s
	}
}

// stop shuts the listener, drains the job pool, closes the journal and
// waits for the serving goroutine to return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := d.http.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := d.srv.Drain(ctx); err == nil {
		err = derr
	}
	if cerr := d.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// mixSetUp starts and stops a daemon on a fresh state dir
// mixSetupReps+1 times and returns the median start-up CPU time of all
// but the first.
func mixSetUp(tmp string) (float64, error) {
	times := make([]time.Duration, 0, mixSetupReps+1)
	for range mixSetupReps + 1 {
		dir, err := os.MkdirTemp(tmp, "setup-")
		if err != nil {
			return 0, err
		}
		runtime.GC()
		c := cpuTime()
		d, err := startDaemon(dir)
		if err != nil {
			os.RemoveAll(dir)
			return 0, err
		}
		times = append(times, cpuTime()-c)
		err = d.stop()
		os.RemoveAll(dir)
		if err != nil {
			return 0, err
		}
	}
	return median(seconds(times[1:])), nil
}

// outcome is one completed request.
type outcome struct {
	req     request
	cache   string // X-Drowsyd-Cache: hit, miss or bypass
	latency time.Duration
	failed  bool
	sum     [32]byte // of the body; of the report tail for timeseries
	body    []byte   // kept for checked requests only
}

// loop is a closed-loop run: each client sends its next request only
// after the previous reply is complete.
type loop struct {
	mu       sync.Mutex
	idle     *sync.Cond // signalled when a request completes
	gen      *generator
	inflight int
	outcomes []outcome
	hits     int
	misses   int
	elapsed  time.Duration
	// heapMB is the live heap after the first heapWindow requests.
	heapMB   float64
	heapRead bool
	// cpu is the CPU time the process spent during the loop: serving,
	// the clients and the runtime.
	cpu time.Duration
}

// runLoop drives d with cfg.workers clients for cfg.seconds, and on
// until the first heapWindow requests have completed. With untilTails
// it keeps going (up to three times as long) until the hit p99 and the
// miss p90 each have minBeyond samples beyond them.
func runLoop(cfg runConfig, d *daemon, untilTails bool) *loop {
	l := &loop{gen: newGenerator(cfg.seed)}
	l.idle = sync.NewCond(&l.mu)
	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     cfg.workers,
		MaxIdleConnsPerHost: cfg.workers,
		DisableCompression:  true,
	}}
	defer client.CloseIdleConnections()
	start, cpu0 := time.Now(), cpuTime()
	window := time.Duration(cfg.seconds * float64(time.Second))
	// take returns the next request to send, or false when the run is
	// over. It holds back request heapWindow until every earlier one has
	// completed and the heap has been read. Called with l.mu held.
	take := func() (request, bool) {
		el := time.Since(start)
		if el >= window && l.heapRead && !(untilTails && el < 3*window &&
			!(percentileOK(l.hits, 0.99) && percentileOK(l.misses, 0.90))) {
			return request{}, false
		}
		if l.gen.seq == heapWindow && !l.heapRead {
			for l.inflight > 0 {
				l.idle.Wait()
			}
			if !l.heapRead {
				l.heapMB, l.heapRead = liveHeapMB(), true
			}
		}
		l.inflight++
		return l.gen.next(), true
	}
	var wg sync.WaitGroup
	for range cfg.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				l.mu.Lock()
				req, ok := take()
				l.mu.Unlock()
				if !ok {
					return
				}
				o := send(client, d.base, req)
				l.mu.Lock()
				l.outcomes = append(l.outcomes, o)
				switch o.cache {
				case "hit":
					l.hits++
				case "miss":
					l.misses++
				}
				l.inflight--
				l.idle.Broadcast()
				l.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	l.elapsed, l.cpu = time.Since(start), cpuTime()-cpu0
	slices.SortFunc(l.outcomes, func(a, b outcome) int { return a.req.seq - b.req.seq })
	return l
}

// send issues one request and records its latency, cache state and
// body digest.
func send(client *http.Client, base string, req request) outcome {
	o := outcome{req: req}
	url := base + "/v1/run"
	switch req.kind {
	case kindSweep:
		url = base + "/v1/sweep"
	case kindTimeseries:
		url += "?timeseries=1"
	}
	t := time.Now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(req.body))
	if err != nil {
		o.latency, o.failed = time.Since(t), true
		return o
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.latency = time.Since(t)
	o.cache = resp.Header.Get("X-Drowsyd-Cache")
	if err != nil || resp.StatusCode != http.StatusOK {
		o.failed = true
		return o
	}
	if req.kind == kindTimeseries {
		// The flight-recorder lines come first; the report starts at
		// the first line that is exactly "{".
		i := bytes.Index(body, []byte("\n{\n"))
		if i < 0 {
			o.failed = true
			return o
		}
		body = body[i+1:]
	}
	o.sum = sha256.Sum256(body)
	if req.checked {
		o.body = body
	}
	return o
}

// verify applies the correctness gate to every outcome: each response
// must be byte-identical to the first response for its spec (a
// timeseries report tail to the plain run's), and the checked specs'
// responses must equal scenario.Run called directly. It marks failures
// in place.
func (l *loop) verify(cfg runConfig) error {
	first := map[string][32]byte{}
	for i := range l.outcomes {
		o := &l.outcomes[i]
		if o.failed {
			continue
		}
		key := o.req.key()
		if o.req.kind == kindTimeseries {
			key = request{kind: kindRun, body: o.req.body}.key()
		}
		ref, ok := first[key]
		switch {
		case !ok && o.req.kind != kindTimeseries:
			first[key] = o.sum
		case !ok || ref != o.sum:
			o.failed = true
		}
	}
	for i := range l.outcomes {
		o := &l.outcomes[i]
		if !o.req.checked || o.failed {
			continue
		}
		want, err := directReport(o.req.body, cfg.workers)
		if err != nil {
			return fmt.Errorf("direct run of %s: %w", o.req.body, err)
		}
		if !bytes.Equal(want, o.body) {
			o.failed = true
		}
	}
	return nil
}

// directReport decodes a run body the way drowsyd does and runs it
// through scenario.Run directly, returning the report bytes.
func directReport(body []byte, workers int) ([]byte, error) {
	spec, err := server.ParseJobSpec(body)
	if err != nil {
		return nil, err
	}
	sc, err := spec.BuildRun(server.Limits{})
	if err != nil {
		return nil, err
	}
	return reportBytes(sc, workers)
}

// reportBytes runs sc and returns its report's CLI bytes.
func reportBytes(sc scenario.Scenario, workers int) ([]byte, error) {
	rep, err := scenario.Run(sc, scenario.Options{Workers: workers})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// latencies returns the latencies in seconds of the outcomes whose
// cache state passes keep. A response that fails the gate still took
// its time; the failure is counted separately.
func (l *loop) latencies(keep func(string) bool) []float64 {
	var xs []float64
	for _, o := range l.outcomes {
		if keep(o.cache) {
			xs = append(xs, o.latency.Seconds())
		}
	}
	return xs
}

func (l *loop) failures() int {
	n := 0
	for _, o := range l.outcomes {
		if o.failed {
			n++
		}
	}
	return n
}

// runMix is the drowsyd-mix workload.
func runMix(cfg runConfig) (*result, error) {
	setup, err := mixSetUp(cfg.tmpDir)
	if err != nil {
		return nil, fmt.Errorf("drowsyd-mix set-up: %w", err)
	}
	dir, err := os.MkdirTemp(cfg.tmpDir, "drowsyd-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	d, err := startDaemon(dir)
	if err != nil {
		return nil, fmt.Errorf("drowsyd-mix: %w", err)
	}
	l := runLoop(cfg, d, cfg.traced)
	stats := d.srv.Stats()
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("drowsyd-mix: stopping drowsyd: %w", err)
	}
	if err := l.verify(cfg); err != nil {
		return nil, fmt.Errorf("drowsyd-mix: %w", err)
	}
	if n := l.gen.exhausted; n > 0 {
		return nil, fmt.Errorf("drowsyd-mix: the generator ran out of new specs %d times in %d requests, so the mix was no longer as stated", n, len(l.outcomes))
	}

	all := l.latencies(func(string) bool { return true })
	hits := l.latencies(func(c string) bool { return c == "hit" })
	misses := l.latencies(func(c string) bool { return c == "miss" })
	if len(misses) == 0 || len(hits) == 0 {
		return nil, errors.New("drowsyd-mix: the run completed no cache hit or no cache miss")
	}
	res := newResult(len(l.outcomes), l.failures())
	tail, _ := highestPercentile(len(hits), []float64{0.5, 0.9, 0.99, 0.999})
	fmt.Fprintf(cfg.log, "drowsyd-mix: %d requests from %d closed-loop clients in %.2f s: %d hits, %d misses, %d other; hit p50 %.3f ms, miss p50 %.3f ms; highest hit percentile with %d samples beyond: p%g\n",
		len(l.outcomes), cfg.workers, l.elapsed.Seconds(), len(hits), len(misses),
		len(l.outcomes)-len(hits)-len(misses), 1000*median(hits), 1000*median(misses), minBeyond, 100*tail)
	if !cfg.traced {
		res.set("op_cpu_ms", "ms", 1000*l.cpu.Seconds()/float64(len(l.outcomes)))
		res.set("heap_mb", "MB", l.heapMB)
		res.setOKFrac()
		res.set("setup_s", "s", setup)
		fmt.Fprintf(cfg.log, "drowsyd-mix: %.3f s of CPU over the loop; wall p50 over all requests %.3f ms, %.2f requests/s\n",
			l.cpu.Seconds(), 1000*median(all), float64(len(l.outcomes))/l.elapsed.Seconds())
		return res, nil
	}

	v := layerValues{
		"hit_p50_ms":    1000 * quantile(hits, 0.50),
		"hit_p99_ms":    1000 * quantile(hits, 0.99),
		"miss_p50_ms":   1000 * quantile(misses, 0.50),
		"miss_p90_ms":   1000 * quantile(misses, 0.90),
		"req_per_s":     float64(len(l.outcomes)) / l.elapsed.Seconds(),
		"hit_samples":   float64(len(hits)),
		"miss_samples":  float64(len(misses)),
		"server.hits":   float64(stats.Hits),
		"server.misses": float64(stats.Misses),
		"server.joins":  float64(stats.Joins),
		"server.runs":   float64(stats.Runs),
		"server.shed":   float64(stats.ShedJobs),
	}
	if !percentileOK(len(hits), 0.99) || !percentileOK(len(misses), 0.90) {
		fmt.Fprintf(cfg.log, "drowsyd-mix: too few samples for hit p99 (%d) or miss p90 (%d)\n", len(hits), len(misses))
		res.Correct = false
	}
	if err := decompose(cfg, l, v); err != nil {
		return nil, fmt.Errorf("drowsyd-mix: %w", err)
	}
	res.setLayers(v)
	fmt.Fprintf(cfg.log, "drowsyd-mix: replayed %d checked misses, phase cover %.4f (tolerance %.2f..1), tracing overhead %+.4f\n",
		checkedSpecs, v["dcsim.phase_cover_frac"], minPhaseCover, v["tracing.overhead_frac"])
	if !v.phaseCoverOK() {
		fmt.Fprintln(cfg.log, "drowsyd-mix: traced phases do not add up to the runs' wall time")
		res.Correct = false
	}
	return res, nil
}

// decompose replays the checked miss bodies outside the daemon, timing
// each layer a miss passes through: decode (ParseJobSpec + BuildRun),
// simulate (scenario.Run as the daemon calls it, with a shared store
// cache and a weekly checkpoint plan whose spills are counted), encode
// (WriteJSON) and the journal (Admit + Complete on a temp journal).
// A second and third pass run each body serially untraced and traced,
// for the simulator layers and the tracing overhead.
func decompose(cfg runConfig, l *loop, v layerValues) error {
	dir, err := os.MkdirTemp(cfg.tmpDir, "journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	j, _, err := checkpoint.OpenJournal(filepath.Join(dir, "jobs.journal"))
	if err != nil {
		return err
	}
	defer j.Close()
	stores := scenario.NewStoreCache()
	var spills, spillBytes int
	var spillMu sync.Mutex
	plan := &scenario.CheckpointPlan{
		EveryHours: checkpointEveryHours,
		Sink: func(cell int, policy string, hr simtime.Hour, data []byte) {
			spillMu.Lock()
			spills++
			spillBytes += len(data)
			spillMu.Unlock()
		},
	}

	var decode, simulate, encode, journal, overhead, untraced, traced, allocMB, gcCycles []float64
	trace := layerValues{}
	n := 0
	for _, o := range l.outcomes {
		if !o.req.checked || o.failed {
			continue
		}
		n++
		t := time.Now()
		spec, err := server.ParseJobSpec(o.req.body)
		if err != nil {
			return err
		}
		sc, err := spec.BuildRun(server.Limits{})
		if err != nil {
			return err
		}
		dec := time.Since(t).Seconds()

		t = time.Now()
		rep, err := scenario.Run(sc, scenario.Options{Workers: cfg.workers, Stores: stores, Checkpoint: plan})
		if err != nil {
			return err
		}
		sim := time.Since(t).Seconds()

		var buf bytes.Buffer
		t = time.Now()
		if err := rep.WriteJSON(&buf); err != nil {
			return err
		}
		enc := time.Since(t).Seconds()

		t = time.Now()
		key := fmt.Sprintf("replay-%d", o.req.seq)
		if err := j.Admit(checkpoint.Entry{Key: key, Kind: kindRun, Spec: o.req.body}); err != nil {
			return err
		}
		if err := j.Complete(key); err != nil {
			return err
		}
		journal = append(journal, time.Since(t).Seconds())
		decode, simulate, encode = append(decode, dec), append(simulate, sim), append(encode, enc)
		if o.cache == "miss" {
			overhead = append(overhead, o.latency.Seconds()-dec-sim-enc)
		}

		a0, g0 := runtimeCounters()
		t = time.Now()
		if _, err := scenario.Run(sc, scenario.Options{Workers: 1}); err != nil {
			return err
		}
		untraced = append(untraced, time.Since(t).Seconds())
		a1, g1 := runtimeCounters()
		allocMB = append(allocMB, float64(a1-a0)/(1<<20))
		gcCycles = append(gcCycles, float64(g1-g0))

		_, wall, err := tracedRun(sc, scenario.Options{}, trace)
		if err != nil {
			return err
		}
		traced = append(traced, wall.Seconds())
	}
	if n == 0 {
		return errors.New("no checked miss to replay")
	}
	trace.finishTrace(n)
	for k, x := range trace {
		v[k] = x
	}
	v["server.decode_ms"] = 1000 * median(decode)
	v["server.simulate_ms"] = 1000 * median(simulate)
	v["server.encode_ms"] = 1000 * median(encode)
	v["checkpoint.journal_ms"] = 1000 * median(journal)
	v["checkpoint.spills"] = float64(spills) / float64(n)
	v["checkpoint.spill_mb"] = float64(spillBytes) / (1 << 20) / float64(n)
	if len(overhead) > 0 {
		v["server.overhead_ms"] = 1000 * median(overhead)
	}
	v["runtime.alloc_mb"] = median(allocMB)
	v["runtime.gc_cycles"] = median(gcCycles)
	v["tracing.overhead_frac"] = sum(traced)/sum(untraced) - 1
	return nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
