package main

import (
	"fmt"
	"time"

	"github.com/spritedht/sprite/internal/cache"
	"github.com/spritedht/sprite/internal/core"
	"github.com/spritedht/sprite/internal/telemetry"
	"github.com/spritedht/sprite/internal/wire"
)

// The deploy workload: a small ring on real loopback sockets with the
// query caches on, driven by two clients.
const (
	deployPeers   = 16
	deployClients = 2
	// deployTwinQueries is the sample of test queries whose rankings must
	// match a simulated twin of the deployment exactly.
	deployTwinQueries = 64
	// cacheTTL outlives any run and cacheEntries holds every distinct test
	// query and query term, so no entry expires or is evicted: which
	// lookups hit does not depend on how fast the run goes.
	cacheTTL     = time.Hour
	cacheEntries = 4096
	// deployPortBase numbers the peers' loopback ports. A peer's address is
	// its name and so its ring position, and rankings depend on which peer
	// holds which term, so the addresses are fixed, below the kernel's
	// ephemeral port range.
	deployPortBase = 23000
)

// deployAddrs is the fixed loopback address of every deploy peer.
func deployAddrs() []string {
	out := make([]string, deployPeers)
	for i := range out {
		out[i] = fmt.Sprintf("127.0.0.1:%d", deployPortBase+i)
	}
	return out
}

func deployStack(seed int64, tel *telemetry.Registry, rec *recorder) stackConfig {
	return stackConfig{
		peers:       deployPeers,
		seed:        seed,
		tcp:         true,
		names:       deployAddrs(),
		parallelism: fanoutParallelism,
		clients:     deployClients,
		cache: core.CacheConfig{
			Enabled:         true,
			PostingsEntries: cacheEntries,
			PostingsTTL:     cacheTTL,
			ResultEntries:   cacheEntries,
			ResultTTL:       cacheTTL,
		},
		resilience: core.ResilienceConfig{
			MaxRetries:     1,
			BaseBackoff:    time.Millisecond,
			PerCallTimeout: 2 * time.Second,
		},
		tel: tel,
		rec: rec,
	}
}

func runDeployWorkload(rc runConfig, in *inputs, rep *report) error {
	return runStreamWorkload(rc, in, deployStack, rep)
}

// checkTwin builds the deployment again on the simulator — same seed, peer
// names, options, inputs and operations — and requires the freshly set-up
// socket deployment to rank a sample of test queries exactly as the twin
// does. Both are probed at the same point, right after set-up, so their
// caches hold the same entries and only the transport differs.
func checkTwin(s *stack, in *inputs, rep *report) error {
	cfg := s.cfg
	cfg.tcp = false
	twin, _, err := setUp(cfg, in, in.docs, learnIterations, false, rep)
	if err != nil {
		return err
	}
	sample := in.test[:min(deployTwinQueries, len(in.test))]
	want := probeAll(twin, sample, rep)
	got := probeAll(s, sample, rep)
	diff := 0
	for i := range sample {
		if rankHash(got[i]) != rankHash(want[i]) {
			diff++
		}
	}
	if diff > 0 {
		rep.problem("%d of %d sampled test queries rank differently over TCP than on the simulated twin", diff, len(sample))
	}
	return nil
}

func deltaStats(now, before cache.Stats) cache.Stats {
	return cache.Stats{
		Hits:        now.Hits - before.Hits,
		Misses:      now.Misses - before.Misses,
		Coalesced:   now.Coalesced - before.Coalesced,
		Evictions:   now.Evictions - before.Evictions,
		Expirations: now.Expirations - before.Expirations,
	}
}

// wireCostRounds re-encodes the payload sample this many times, so each
// timing covers enough work to read well above the clock's resolution.
const wireCostRounds = 20

// wireCost times the binary codec on payloads the traced run actually
// sent: mean encode and decode time and encoded size per message.
func wireCost(samples []any) (encNS, decNS, bytesPerMsg float64) {
	var (
		payloads []any
		frames   [][]byte
		total    int
	)
	for _, p := range samples {
		if b, ok := wire.AppendBinary(nil, p); ok {
			payloads = append(payloads, p)
			frames = append(frames, b)
			total += len(b)
		}
	}
	if len(frames) == 0 {
		return 0, 0, 0
	}
	buf := make([]byte, 0, 64<<10)
	t0 := time.Now()
	for r := 0; r < wireCostRounds; r++ {
		for _, p := range payloads {
			buf, _ = wire.AppendBinary(buf[:0], p)
		}
	}
	enc := time.Since(t0)
	t0 = time.Now()
	for r := 0; r < wireCostRounds; r++ {
		for _, f := range frames {
			wire.DecodeBinary(f) //nolint:errcheck // every frame was just encoded
		}
	}
	dec := time.Since(t0)
	n := float64(len(frames) * wireCostRounds)
	return float64(enc.Nanoseconds()) / n, float64(dec.Nanoseconds()) / n, float64(total) / float64(len(frames))
}
