package main

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/spritedht/sprite/internal/ir"
)

// Shared workload constants.
const (
	topK = 20 // answers per query (paper: 20), and the depth of P@k / R@k
	// learnIterations is the §6.2 training: 5 + 3×5 = 20 indexed terms.
	learnIterations = 3
	// fanoutParallelism pins the per-query fan-out instead of deriving it
	// from GOMAXPROCS, so the same run means the same thing on any machine.
	fanoutParallelism = 4
	// streamLen is one pass of the measured Zipf(zipfSlope) query stream.
	// Runs repeat the stream until their time is up; counts that must
	// repeat exactly are taken over the first pass.
	streamLen = 5000
	zipfSlope = 0.5
	// setupRepeats is how many times a run builds its deployment; setup_s
	// is the median.
	setupRepeats = 3
	// streamWaves is how many churn waves each of the stream workloads'
	// discarded set-ups runs.
	streamWaves = 8
)

// searchPhase is what one measured run of the query stream observed.
type searchPhase struct {
	wallUS  []float64 // wall latency of every search
	firstUS []float64 // wall latency of the first pass's searches
	// windows summarize consecutive runs of searchWindow completions.
	windows []window
	vlatMS  []float64 // virtual latency, first pass (virtual clock only)
	hashes  []uint64  // ranking hash per stream position, first pass
	// msgs and bytes are the simulator's traffic over the first pass.
	msgs, bytes int64
	// heapMB is the live heap after the first pass: a fixed amount of work,
	// so a faster run, which searches more and so records more queries in
	// the peers' histories, does not read as a larger heap.
	heapMB     float64
	mallocs    uint64
	allocBytes uint64
	gcs        uint32
}

// searchSample is one search's outcome.
type searchSample struct {
	i      int           // position in the repeated stream
	done   time.Duration // completion, since the phase started
	wallUS float64
	vlatMS float64
	hash   uint64
	err    error
}

// runSearches drives the stream through Search from closed-loop clients
// sharing one cursor: each takes the next query, waits for its answer, then
// takes the next. The first pass runs to completion on its own; with
// dur > 0 further passes follow until dur of measuring has passed. Every
// later pass must rank exactly as the first did.
func runSearches(s *stack, in *inputs, stream []int, dur time.Duration, clients int, rep *report) *searchPhase {
	ph := &searchPhase{hashes: make([]uint64, len(stream))}
	msgs0, bytes0 := s.messages()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	epoch := time.Now()
	first, took := driveStream(s, in, stream, epoch, 0, clients, func(i int) bool { return i < len(stream) })
	m, b := s.messages()
	ph.msgs, ph.bytes = m-msgs0, b-bytes0
	ph.heapMB = heapMB()
	samples := first
	if dur > took {
		budget := dur - took
		var start time.Time
		rest, _ := driveStream(s, in, stream, epoch, len(stream), clients, func(int) bool {
			if start.IsZero() {
				start = time.Now()
			}
			return time.Since(start) < budget
		})
		samples = append(samples, rest...)
	}
	runtime.ReadMemStats(&after)
	ph.mallocs = after.Mallocs - before.Mallocs
	ph.allocBytes = after.TotalAlloc - before.TotalAlloc
	ph.gcs = after.NumGC - before.NumGC

	sort.Slice(samples, func(a, b int) bool { return samples[a].done < samples[b].done })
	ph.windows = windowsOf(samples)
	mismatches := 0
	for _, smp := range samples {
		rep.op(smp.err)
		ph.wallUS = append(ph.wallUS, smp.wallUS)
		if smp.i < len(stream) {
			ph.firstUS = append(ph.firstUS, smp.wallUS)
			ph.hashes[smp.i] = smp.hash
			if s.clk != nil {
				ph.vlatMS = append(ph.vlatMS, smp.vlatMS)
			}
		}
	}
	for _, smp := range samples {
		if smp.i >= len(stream) && smp.hash != ph.hashes[smp.i%len(stream)] {
			mismatches++
		}
	}
	if mismatches > 0 {
		rep.problem("%d repeated searches ranked differently from the first pass", mismatches)
	}
	return ph
}

// searchWindow is how many consecutive completions one window summarizes:
// enough that its 99th percentile has ten searches beyond it.
const searchWindow = 1000

// window is the latency and throughput of searchWindow consecutive
// completions.
type window struct {
	p50US, p90US, p99US, qps float64
}

// windowsOf cuts completion-ordered samples into full windows. Reporting the
// median window, rather than one figure over the whole run, keeps a burst
// of outside load on the machine from moving the run's result.
func windowsOf(samples []searchSample) []window {
	var (
		out  []window
		prev time.Duration
	)
	for end := searchWindow; end <= len(samples); end += searchWindow {
		w := samples[end-searchWindow : end]
		lat := make([]float64, len(w))
		for i, smp := range w {
			lat[i] = smp.wallUS
		}
		last := w[len(w)-1].done
		out = append(out, window{
			p50US: median(lat),
			p90US: quantile(lat, 0.90),
			p99US: quantile(lat, 0.99),
			qps:   float64(len(w)) / (last - prev).Seconds(),
		})
		prev = last
	}
	return out
}

// driveStream runs clients over the stream from position from while more
// reports true for the next position, and returns every search's sample
// and the wall time the clients took.
func driveStream(s *stack, in *inputs, stream []int, epoch time.Time, from, clients int, more func(i int) bool) ([]searchSample, time.Duration) {
	peers := s.peerAddrs()
	var (
		mu      sync.Mutex
		cursor  = from
		samples []searchSample
	)
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if !more(cursor) {
			return 0, false
		}
		cursor++
		return cursor - 1, true
	}
	client := func() {
		var mine []searchSample
		for {
			i, ok := take()
			if !ok {
				break
			}
			pos := i % len(stream)
			ctx := s.begin(context.Background())
			var v0 time.Duration
			if s.clk != nil {
				v0 = s.clk.Elapsed()
			}
			t0 := time.Now()
			rl, err := s.search(ctx, peers[pos%len(peers)], in.test[stream[pos]].text, topK)
			smp := searchSample{i: i, done: time.Since(epoch), wallUS: float64(time.Since(t0).Nanoseconds()) / 1e3, err: err}
			if s.clk != nil {
				smp.vlatMS = float64(s.clk.Elapsed()-v0) / 1e6
			}
			smp.hash = rankHash(rl)
			mine = append(mine, smp)
		}
		mu.Lock()
		samples = append(samples, mine...)
		mu.Unlock()
	}
	start := time.Now()
	if clients == 1 {
		s.run(client)
	} else {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				client()
			}()
		}
		wg.Wait()
	}
	return samples, time.Since(start)
}

// probeAll ranks every query with non-perturbing probes, issuers round
// robin, and returns the rankings in query order.
func probeAll(s *stack, queries []rawQuery, rep *report) []ir.RankedList {
	out := make([]ir.RankedList, len(queries))
	peers := s.peerAddrs()
	s.run(func() {
		for i, q := range queries {
			rl, err := s.probe(peers[i%len(peers)], q.text, topK)
			if err != nil {
				rep.problem("probe %s: %v", q.q.ID, err)
			}
			out[i] = rl
		}
	})
	return out
}

// setQuality reports P@k and R@k over the test queries, measured after the
// measured phase, and folds the probe rankings into the rank digest.
func setQuality(s *stack, in *inputs, rep *report) []ir.RankedList {
	rankings := probeAll(s, in.test, rep)
	m := quality(rankings, in.test, topK)
	rep.set("precision", "ratio", m.Precision)
	rep.set("recall", "ratio", m.Recall)
	return rankings
}

// heapMB is the live heap after a forced collection.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// setSearchLatency reports the wall-clock search metrics: the median over
// windows of each window's figures.
func setSearchLatency(rep *report, windows []window) {
	var p50, p90, p99, qps []float64
	for _, w := range windows {
		p50, p90, p99, qps = append(p50, w.p50US), append(p90, w.p90US), append(p99, w.p99US), append(qps, w.qps)
	}
	rep.set("search_p50_us", "us", median(p50))
	rep.set("search_p90_us", "us", median(p90))
	rep.set("search_qps", "1/s", median(qps))
	// The 99th percentile moves with the load other tenants put on the
	// machine far more than any bound could absorb, so it is printed, not
	// gated.
	rep.show("search_p99_us", "us", median(p99))
}
