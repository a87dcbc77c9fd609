package main

import (
	"context"
	"runtime"
	"time"

	"github.com/spritedht/sprite/internal/ir"
	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/telemetry"
)

// The maintain workload: the write and maintenance path. An episode builds
// a replicated ring on the wall clock, shares the first maintainInitialDocs
// documents after the training queries, then runs maintainRounds rounds of
// share batch → training-query batch → one learning round → one churn wave.
const (
	maintainPeers        = 256
	maintainReplicas     = 2
	maintainInitialDocs  = 1000
	maintainRounds       = 8
	maintainBatchDocs    = 25
	maintainBatchQueries = 100
	// maintainTracedRounds is the traced episode's length: its first rounds,
	// which keeps the spans held in memory to about a hundred megabytes.
	maintainTracedRounds = 4
)

func maintainStack(seed int64, tel *telemetry.Registry, rec *recorder) stackConfig {
	return stackConfig{
		peers:       maintainPeers,
		seed:        seed,
		replicas:    maintainReplicas,
		parallelism: fanoutParallelism,
		clients:     1,
		tel:         tel,
		rec:         rec,
	}
}

// episode is what one build-and-maintain episode's rounds observed. Its
// counts and rankings are a function of the seed alone; its times are not.
type episode struct {
	setup time.Duration
	writes
	churn    *churn
	searchUS []float64 // wall latency of every training search
	// batches summarize each round's training searches, as windows do the
	// stream workloads' searches.
	batches []window
	// searchMsgs and searchBytes are the training searches' traffic.
	searchMsgs, searchBytes        int64
	searchMallocs, searchAllocated uint64
	hashes                         []uint64
	hops                           float64 // mean chord lookup hops of the rounds (traced only)
	quality                        ir.Metrics
	digest                         uint64
}

func runEpisode(cfg stackConfig, in *inputs, rounds int, rep *report) (*episode, *stack, error) {
	s, run, err := setUp(cfg, in, in.docs[:maintainInitialDocs], 0, false, rep)
	if err != nil {
		return nil, nil, err
	}
	ep := &episode{setup: run.took, churn: newChurn()}
	queries := zipfStream(len(in.train), maintainRounds*maintainBatchQueries, zipfSlope, subSeed(cfg.seed, 5))
	next := maintainInitialDocs
	if cfg.rec != nil {
		cfg.rec.on.Store(true)
	}
	hops := markHops(cfg.tel)
	for r := 0; r < rounds && err == nil; r++ {
		peers := s.peerAddrs()
		if err = ep.shareBatch(s, peers, in.docs[next:next+maintainBatchDocs], next, rep); err != nil {
			break
		}
		next += maintainBatchDocs
		ep.searchBatch(s, peers, in.train, queries[r*maintainBatchQueries:(r+1)*maintainBatchQueries], rep)
		if err = ep.learnRound(s, rep); err != nil {
			break
		}
		err = ep.churn.wave(s, rep)
	}
	ep.hops = hops.meanSince(cfg.tel)
	if cfg.rec != nil {
		cfg.rec.on.Store(false)
	}
	if err != nil {
		return nil, nil, err
	}
	rankings := probeAll(s, in.test, rep)
	ep.quality = quality(rankings, in.test, topK)
	for _, rl := range rankings {
		ep.hashes = append(ep.hashes, rankHash(rl))
	}
	ep.digest = digestOf(ep.hashes)
	return ep, s, nil
}

// searchBatch runs the training queries qs[idx[j]] from peers[j mod n],
// each as its own operation, and records their latencies, traffic,
// allocations and rankings.
func (ep *episode) searchBatch(s *stack, peers []simnet.Addr, qs []rawQuery, idx []int, rep *report) {
	m0, b0 := s.messages()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	lat := make([]float64, 0, len(idx))
	for j, qi := range idx {
		ctx := s.beginSerial(context.Background())
		t0 := time.Now()
		rl, err := s.search(ctx, peers[j%len(peers)], qs[qi].text, topK)
		lat = append(lat, micros(time.Since(t0)))
		rep.op(err)
		ep.hashes = append(ep.hashes, rankHash(rl))
	}
	ep.searchUS = append(ep.searchUS, lat...)
	ep.batches = append(ep.batches, window{
		p50US: median(lat),
		p90US: quantile(lat, 0.90),
		p99US: quantile(lat, 0.99),
		qps:   float64(len(idx)) / time.Since(start).Seconds(),
	})
	runtime.ReadMemStats(&after)
	ep.searchMallocs += after.Mallocs - before.Mallocs
	ep.searchAllocated += after.TotalAlloc - before.TotalAlloc
	m1, b1 := s.messages()
	ep.searchMsgs += m1 - m0
	ep.searchBytes += b1 - b0
}

// reproduces reports whether ep counted and ranked exactly as first did.
func (ep *episode) reproduces(first *episode) bool {
	return ep.shareMsgs == first.shareMsgs && ep.churn.msgs == first.churn.msgs &&
		ep.searchMsgs == first.searchMsgs && ep.searchBytes == first.searchBytes &&
		ep.learnChanges == first.learnChanges && ep.quality == first.quality && ep.digest == first.digest
}

func runMaintainWorkload(rc runConfig, in *inputs, rep *report) error {
	if rc.trace {
		return traceMaintainWorkload(rc, in, rep)
	}
	// Episodes repeat until the run's time is up (at least setupRepeats of
	// them, for the set-up median). Every episode must reproduce the first
	// one's counts and rankings exactly.
	var (
		eps   []*episode
		last  *stack
		start = time.Now()
	)
	for len(eps) < setupRepeats || time.Since(start) < rc.seconds {
		last = nil
		runtime.GC()
		ep, s, err := runEpisode(maintainStack(rc.seed, nil, nil), in, maintainRounds, rep)
		if err != nil {
			return err
		}
		eps, last = append(eps, ep), s
	}
	first := eps[0]
	var (
		setups  []float64
		batches []window
		ws      []*writes
		cs      []*churn
	)
	for i, ep := range eps {
		setups = append(setups, ep.setup.Seconds())
		ws, cs = append(ws, &ep.writes), append(cs, ep.churn)
		batches = append(batches, ep.batches...)
		if !ep.reproduces(first) {
			rep.problem("episode %d did not reproduce episode 0 (share msgs %d/%d, search msgs %d/%d, wave msgs %d/%d, digest %x/%x)",
				i, ep.shareMsgs, first.shareMsgs, ep.searchMsgs, first.searchMsgs, ep.churn.msgs, first.churn.msgs, ep.digest, first.digest)
		}
	}
	searches := float64(maintainRounds * maintainBatchQueries)
	rep.set("setup_s", "s", median(setups))
	setWrites(rep, ws)
	setChurn(rep, cs)
	setSearchLatency(rep, batches)
	rep.set("search_msgs", "count", float64(first.searchMsgs)/searches)
	rep.set("search_bytes", "B", float64(first.searchBytes)/searches)
	rep.set("precision", "ratio", first.quality.Precision)
	rep.set("recall", "ratio", first.quality.Recall)
	rep.set("heap_mb", "MB", heapMB())
	runtime.KeepAlive(last)
	rep.digest = first.digest
	return nil
}

// traceMaintainWorkload runs untraced episodes for half the run (the
// runtime counts and the base of trace.overhead_pct), then a traced episode
// of the first maintainTracedRounds rounds, and reports the per-layer
// metrics of its spans. trace.overhead_pct compares the shares of those
// same rounds.
func traceMaintainWorkload(rc runConfig, in *inputs, rep *report) error {
	var (
		baseShareUS []float64
		rt          runtimeCounts
		start       = time.Now()
	)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for len(baseShareUS) == 0 || time.Since(start) < rc.seconds/2 {
		ep, _, err := runEpisode(maintainStack(rc.seed, nil, nil), in, maintainRounds, rep)
		if err != nil {
			return err
		}
		baseShareUS = append(baseShareUS, ep.shareUS[:maintainTracedRounds*maintainBatchDocs]...)
		rt.shares += len(ep.shareUS)
		rt.shareMallocs += ep.shareMallocs
		rt.searches += len(ep.searchUS)
		rt.searchMallocs += ep.searchMallocs
		rt.searchBytes += ep.searchAllocated
	}
	runtime.ReadMemStats(&after)
	rt.gcs = after.NumGC - before.NumGC

	tel := telemetry.NewRegistry()
	rec := newRecorder()
	ep, s, err := runEpisode(maintainStack(rc.seed, tel, rec), in, maintainTracedRounds, rep)
	if err != nil {
		return err
	}
	rep.digest = ep.digest
	setLayers(rep, rec, &layerRun{
		s:            s,
		tel:          tel,
		searches:     len(ep.searchUS),
		shares:       len(ep.shareUS),
		learnRounds:  ep.learnRounds,
		learnChanges: ep.learnChanges,
		waves:        len(ep.churn.waveMS),
		hops:         ep.hops,
		runtime:      rt,
		overheadPct:  overheadPct(median(ep.shareUS), median(baseShareUS)),
	})
	return rec.writeTo(rc.tracePath())
}
