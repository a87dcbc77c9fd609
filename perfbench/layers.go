package main

import (
	"github.com/spritedht/sprite/internal/cache"
	"github.com/spritedht/sprite/internal/telemetry"
)

// layerRun is what a traced run counted besides its spans: how many of each
// benchmark operation the recorded spans cover, the query caches' traffic
// over the measured searches, and the untraced counts the runtime metrics
// come from. The program's telemetry counters are read from construction:
// set-up runs no churn and, in the stream workloads, is the only traffic
// before the measured phase.
type layerRun struct {
	s                                    *stack
	tel                                  *telemetry.Registry
	searches, shares, learnRounds, waves int
	hops                                 float64 // mean chord lookup hops over the measured operations
	learnChanges                         int
	post, res                            cache.Stats // zero when the caches are off
	runtime                              runtimeCounts
	overheadPct                          float64
}

// runtimeCounts are the Go runtime's allocation counts over untraced
// searches and shares, and the collections that ran meanwhile.
type runtimeCounts struct {
	searches, shares           int
	searchMallocs, searchBytes uint64
	shareMallocs               uint64
	gcs                        uint32
}

// setLayers reports every per-layer metric. Every workload searches,
// shares, learns and churns, so each reads something on every workload; a
// layer a workload leaves out reads 0 there: the caches off search and
// maintain, the sockets off every workload but deploy, the virtual clock
// off every workload but search, and replication off every workload but
// maintain.
func setLayers(rep *report, rec *recorder, lr *layerRun) {
	v := rec.view()
	per := func(x, n int) float64 { return ratio(float64(x), float64(n)) }
	us := func(ns []float64) float64 { return median(ns) / 1e3 }
	counter := func(name string) float64 { return float64(lr.tel.Counter(name).Value()) }

	rep.set("core.search.self_us", "us", us(v.selfTimes(spanSearch)))
	rep.set("core.share.self_us", "us", us(v.selfTimes(spanShare)))
	rep.set("core.publish.calls_per_share", "count", per(v.countCalls(spanShare, msgPublish), lr.shares))
	rep.set("core.learn.self_ms", "ms", median(v.selfTimes(spanLearn))/1e6)
	rep.set("core.learn.changes_per_round", "count", per(lr.learnChanges, lr.learnRounds))
	rep.set("core.poll.calls_per_round", "count", per(v.countCalls(spanLearn, msgPoll), lr.learnRounds))
	rep.set("core.poll.handler_us", "us", us(v.handlerDurs(msgPoll)))

	rep.set("text.analyze.us_per_doc", "us", mean(v.durations(spanAnalyzeDoc))/1e3)
	rep.set("text.analyze.us_per_query", "us", mean(v.durations(spanAnalyzeQuery))/1e3)

	rep.set("chord.lookup.hops", "count", lr.hops)
	rep.set("chord.next_hop.calls_per_search", "count", per(v.countCalls(spanSearch, msgNextHop), lr.searches))
	rep.set("chord.next_hop.calls_per_share", "count", per(v.countCalls(spanShare, msgNextHop), lr.shares))
	rep.set("chord.next_hop.handler_us", "us", us(v.handlerDurs(msgNextHop)))
	rep.set("chord.maint.calls_per_wave", "count",
		per(v.countCalls(spanWave, "chord.get_state", "chord.notify", "chord.ping"), lr.waves))

	// rpc is the transport below chord: simnet, or the TCP transport on deploy.
	rep.set("rpc.call.self_us", "us", v.callSelfMean()/1e3)
	rep.set("rpc.calls_per_search", "count", per(v.countCalls(spanSearch), lr.searches))
	rep.set("rpc.get_postings.bytes_per_search", "B", per(v.sumCallBytes(spanSearch, msgGetPostings), lr.searches))

	var searchWall float64
	for _, d := range v.durations(spanSearch) {
		searchWall += d
	}
	rep.set("vtime.sleep.search_wall_pct", "%", 100*ratio(float64(v.sleepWall(spanSearch)), searchWall))
	rep.set("fanout.overlap", "ratio", median(v.overlaps(spanSearch)))

	rep.set("index.get_postings.handler_us", "us", us(v.handlerDurs(msgGetPostings)))
	rep.set("index.publish.handler_us", "us", us(v.handlerDurs(msgPublish)))
	rep.set("index.replica.calls_per_share", "count", per(v.countCalls(spanShare, msgReplica), lr.shares))
	st := lr.s.net.IndexStats()
	rep.set("index.postings", "count", float64(st.Postings))
	rep.set("index.bytes_per_posting", "B", st.BytesPerPosting())

	rep.set("cache.results.hit_rate", "ratio", lr.res.HitRate())
	rep.set("cache.postings.hit_rate", "ratio", lr.post.HitRate())
	rep.set("cache.postings.coalesced", "count", float64(lr.post.Coalesced))
	rep.set("cache.evictions", "count", float64(lr.post.Evictions+lr.res.Evictions))
	rep.set("cache.expirations", "count", float64(lr.post.Expirations+lr.res.Expirations))

	frames := lr.tel.Histogram("tcp.batch.frames")
	rep.set("transport.dials", "count", counter("tcp.dials"))
	rep.set("transport.batch.frames", "count", ratio(float64(frames.Sum()), float64(frames.Count())))
	rep.set("transport.codec.gob_bytes", "B", counter("tcp.codec.gob.bytes"))
	enc, dec, size := wireCost(rec.samples)
	rep.set("wire.encode.ns_per_msg", "ns", enc)
	rep.set("wire.decode.ns_per_msg", "ns", dec)
	rep.set("wire.bytes_per_msg", "B", size)

	rep.set("resilience.retries", "count", counter("sprite.resilience.retries"))
	rep.set("resilience.hedges", "count", counter("sprite.resilience.hedges"))
	rep.set("resilience.failovers", "count", counter("sprite.resilience.failovers"))

	perWave := func(x float64) float64 { return ratio(x, float64(lr.waves)) }
	rep.set("repair.moved_per_wave", "count", perWave(counter("sprite.repair.handoffs")))
	rep.set("repair.reconciles_per_wave", "count", perWave(counter("sprite.repair.reconciles")))
	rep.set("repair.divergent_per_wave", "count", perWave(counter("sprite.repair.divergent_terms")))
	rep.set("repair.calls_per_wave", "count", per(v.countCalls(spanWave, msgHandoff, "sprite.repair.handoff_drop",
		"sprite.relocate", msgDigest, msgPush, "sprite.repair.retire"), lr.waves))
	rep.set("repair.handoff.handler_us", "us", us(v.handlerDurs(msgHandoff)))

	rt := lr.runtime
	rep.set("runtime.allocs_per_search", "count", per(int(rt.searchMallocs), rt.searches))
	rep.set("runtime.bytes_per_search", "B", per(int(rt.searchBytes), rt.searches))
	rep.set("runtime.allocs_per_share", "count", per(int(rt.shareMallocs), rt.shares))
	rep.set("runtime.gc_cycles", "count", float64(rt.gcs))
	rep.set("trace.overhead_pct", "%", lr.overheadPct)
}

// hopMark is a point in the telemetry's chord.lookup.hops histogram; ring
// construction records lookups too, so hops are read between two marks.
type hopMark struct{ sum, count int64 }

func markHops(tel *telemetry.Registry) hopMark {
	if tel == nil {
		return hopMark{}
	}
	h := tel.Histogram("chord.lookup.hops")
	return hopMark{h.Sum(), h.Count()}
}

// meanSince is the mean hops of the lookups between m and now.
func (m hopMark) meanSince(tel *telemetry.Registry) float64 {
	now := markHops(tel)
	return ratio(float64(now.sum-m.sum), float64(now.count-m.count))
}
