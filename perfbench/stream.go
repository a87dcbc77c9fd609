package main

import (
	"time"

	"github.com/spritedht/sprite/internal/telemetry"
)

// stackFunc is a workload's deployment for a seed, traced when tel and rec
// are set.
type stackFunc func(seed int64, tel *telemetry.Registry, rec *recorder) stackConfig

// runStreamWorkload is the search and deploy workloads: set the deployment
// up setupRepeats times (their shares and learning rounds give the write
// metrics; all but the last then run the churn waves), and on the last
// measure the Zipf stream of test searches and probe the quality.
func runStreamWorkload(rc runConfig, in *inputs, stackFor stackFunc, rep *report) error {
	stream := zipfStream(len(in.test), streamLen, zipfSlope, subSeed(rc.seed, 4))
	if rc.trace {
		return traceStreamWorkload(rc, in, stream, stackFor, rep)
	}
	cfg := stackFor(rc.seed, nil, nil)
	s, setup, runs, churns, err := setUpRepeated(cfg, in, learnIterations, rep)
	if err != nil {
		return err
	}
	defer s.close()
	rep.set("setup_s", "s", setup)
	setWrites(rep, runs)
	setChurn(rep, churns)
	if cfg.tcp {
		if err := checkTwin(s, in, rep); err != nil {
			return err
		}
	}
	ph := measureStream(s, in, stream, rc.seconds, rep)
	setSearchLatency(rep, ph.windows)
	rep.set("search_msgs", "count", float64(ph.msgs)/float64(streamLen))
	rep.set("search_bytes", "B", float64(ph.bytes)/float64(streamLen))
	if s.clk != nil {
		rep.show("search_vlat_mean_ms", "ms", mean(ph.vlatMS))
		rep.show("search_vlat_p50_ms", "ms", median(ph.vlatMS))
		rep.show("search_vlat_p99_ms", "ms", quantile(ph.vlatMS, 0.99))
	}
	rep.set("heap_mb", "MB", ph.heapMB)
	setQuality(s, in, rep)
	rep.digest = digestOf(ph.hashes)
	return nil
}

// measureStream runs the stream on s for dur (one pass when dur is 0). On
// the virtual clock it waits out every link delay while it does; set-up
// and churn account delays without waiting them out.
func measureStream(s *stack, in *inputs, stream []int, dur time.Duration, rep *report) *searchPhase {
	if s.sim != nil && s.cfg.linkDelay > 0 {
		s.sim.SetSleepLatency(true)
		defer s.sim.SetSleepLatency(false)
	}
	return runSearches(s, in, stream, dur, s.cfg.clients, rep)
}

// traceStreamWorkload sets up an untraced deployment and measures the
// stream on it for half the run (the runtime counts and the base of
// trace.overhead_pct), then sets up a traced one and records its shares
// and learning rounds, one pass of the stream and then the churn waves
// (which the untraced run starts on fresh set-ups instead, to save one),
// and reports the per-layer metrics of those spans.
func traceStreamWorkload(rc runConfig, in *inputs, stream []int, stackFor stackFunc, rep *report) error {
	s0, base, err := setUp(stackFor(rc.seed, nil, nil), in, in.docs, learnIterations, false, rep)
	if err != nil {
		return err
	}
	ph0 := measureStream(s0, in, stream, rc.seconds/2, rep)
	s0.close()

	tel := telemetry.NewRegistry()
	rec := newRecorder()
	s, run, err := setUp(stackFor(rc.seed, tel, rec), in, in.docs, learnIterations, true, rep)
	if err != nil {
		return err
	}
	defer s.close()
	post0, res0 := s.net.PostingsCacheStats(), s.net.ResultCacheStats()
	rec.on.Store(true)
	hops := markHops(tel)
	ph := measureStream(s, in, stream, 0, rep)
	searchHops := hops.meanSince(tel)
	post, res := deltaStats(s.net.PostingsCacheStats(), post0), deltaStats(s.net.ResultCacheStats(), res0)
	c := newChurn()
	err = c.waves(s, streamWaves, rep)
	rec.on.Store(false)
	if err != nil {
		return err
	}
	rep.digest = digestOf(ph.hashes)
	setLayers(rep, rec, &layerRun{
		s:            s,
		tel:          tel,
		searches:     len(ph.wallUS),
		shares:       len(run.shareUS),
		learnRounds:  run.learnRounds,
		learnChanges: run.learnChanges,
		waves:        len(c.waveMS),
		hops:         searchHops,
		post:         post,
		res:          res,
		runtime: runtimeCounts{
			searches:      len(ph0.wallUS),
			searchMallocs: ph0.mallocs,
			searchBytes:   ph0.allocBytes,
			shares:        len(base.shareUS),
			shareMallocs:  base.shareMallocs,
			gcs:           ph0.gcs,
		},
		overheadPct: overheadPct(median(ph.firstUS), median(ph0.firstUS)),
	})
	return rec.writeTo(rc.tracePath())
}

// overheadPct is how much slower the traced median ran than the untraced
// one, in percent.
func overheadPct(traced, untraced float64) float64 {
	return 100 * ratio(traced-untraced, untraced)
}
