package main

import (
	"time"

	"github.com/spritedht/sprite/internal/telemetry"
)

// The search workload: the read path on a large simulated ring.
const searchPeers = 1024

func searchStack(seed int64, tel *telemetry.Registry, rec *recorder) stackConfig {
	return stackConfig{
		peers:       searchPeers,
		seed:        seed,
		virtual:     true,
		linkDelay:   time.Millisecond,
		parallelism: fanoutParallelism,
		clients:     1,
		tel:         tel,
		rec:         rec,
	}
}

func runSearchWorkload(rc runConfig, in *inputs, rep *report) error {
	return runStreamWorkload(rc, in, searchStack, rep)
}
