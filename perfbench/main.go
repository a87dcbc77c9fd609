// Command perfbench is SPRITE's repository benchmark. It generates seeded
// inputs, assembles the deployment with the constructors sprite.New uses,
// drives it through the public calls, checks the outputs, and prints one
// JSON result line: the end-to-end metrics of an untraced run, or with
// -trace 1 the per-layer metrics of a traced one. See README.md.
//
//	perfbench -workload search|maintain|deploy -seed N -seconds S -trace 0|1
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

// tracePath is where a traced run writes its spans, under the checkout's
// build directory; each traced run of a workload replaces the previous one's.
func (rc runConfig) tracePath() string {
	return filepath.Join(".bench_build", "perfbench", "spans-"+rc.workload+".tsv.gz")
}

// Every workload's inputs: a synthetic corpus of corpusDocs documents and
// corpusQueries judged original queries, each of which querygen expands
// into ten (the original and nine derived). Four times the paper's 63
// originals, so per-search averages rest on enough distinct queries to read
// the same from seed to seed.
const (
	corpusDocs    = 2000
	corpusQueries = 252
)

var workloads = map[string]func(runConfig, *inputs, *report) error{
	"search":   runSearchWorkload,
	"maintain": runMaintainWorkload,
	"deploy":   runDeployWorkload,
}

func main() {
	var (
		rc      runConfig
		seconds int
		trace   int
	)
	flag.StringVar(&rc.workload, "workload", "search", "workload: search, maintain or deploy")
	flag.Int64Var(&rc.seed, "seed", 1, "workload seed: every input derives from it")
	flag.IntVar(&seconds, "seconds", 10, "measured wall seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.Parse()
	rc.seconds = time.Duration(seconds) * time.Second
	rc.trace = trace == 1
	run, ok := workloads[rc.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", rc.workload, seconds, trace)
		os.Exit(2)
	}
	in, err := makeInputs(rc.seed, corpusDocs, corpusQueries)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: inputs: %v\n", err)
		os.Exit(1)
	}
	rep := newReport()
	if err := run(rc, in, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", rc.workload, err)
		os.Exit(1)
	}
	if err := rep.write(os.Stdout, rc.workload, rc.seed); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !rep.correct() {
		os.Exit(1)
	}
}
