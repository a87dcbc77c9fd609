package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/spritedht/sprite/internal/simnet"
)

// writes is what a run's shares and learning rounds observed. Every
// workload shares and learns — the stream workloads while they set up,
// maintain in its rounds — so every workload reports the write metrics.
type writes struct {
	shareUS      []float64 // wall latency of every share
	shareMsgs    int64     // messages the shares sent
	shareMallocs uint64    // heap allocations during the shares
	learnRounds  int
	learnDocs    int           // documents the learning rounds went over
	learnTime    time.Duration // wall time of the learning rounds
	learnChanges int
}

// learnRate is the documents re-tuned per wall second of learning.
func (w *writes) learnRate() float64 { return ratio(float64(w.learnDocs), w.learnTime.Seconds()) }

// shareBatch shares docs in order, the i-th from peers[(from+i) mod n],
// each as its own operation, and records their latencies, messages and
// allocations. It returns the first failure after sharing them all.
func (w *writes) shareBatch(s *stack, peers []simnet.Addr, docs []rawDoc, from int, rep *report) error {
	m0, _ := s.messages()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var first error
	for i, d := range docs {
		ctx := s.beginSerial(context.Background())
		t0 := time.Now()
		err := s.share(ctx, peers[(from+i)%len(peers)], d)
		w.shareUS = append(w.shareUS, micros(time.Since(t0)))
		rep.op(err)
		if err != nil && first == nil {
			first = fmt.Errorf("share %s: %w", d.id, err)
		}
	}
	runtime.ReadMemStats(&after)
	w.shareMallocs += after.Mallocs - before.Mallocs
	m1, _ := s.messages()
	w.shareMsgs += m1 - m0
	return first
}

// learnRound runs one learning round and records its work and time.
func (w *writes) learnRound(s *stack, rep *report) error {
	docs := len(s.net.Documents())
	t0 := time.Now()
	changes, err := s.learn(s.beginSerial(context.Background()))
	w.learnTime += time.Since(t0)
	w.learnRounds++
	w.learnDocs += docs
	w.learnChanges += changes
	rep.op(err)
	if err != nil {
		return fmt.Errorf("learning: %w", err)
	}
	return nil
}

// setupRun is one set-up: its wall time and what its writes observed.
type setupRun struct {
	took time.Duration
	writes
}

// setUp builds a deployment and trains it in the §6.2 order: training
// queries run through Search (their keywords land in the indexing peers'
// histories), then the documents are shared, then learnRounds learning
// iterations. On a traced stack with record set, the shares and learning
// rounds are recorded; the training queries never are.
func setUp(cfg stackConfig, in *inputs, docs []rawDoc, learnRounds int, record bool, rep *report) (*stack, *setupRun, error) {
	start := time.Now()
	s, err := buildStack(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("build: %w", err)
	}
	run := &setupRun{}
	s.run(func() {
		ctx := context.Background()
		peers := s.peerAddrs()
		for i, q := range in.train {
			_, err = s.search(ctx, peers[i%len(peers)], q.text, topK)
			rep.op(err)
			if err != nil {
				err = fmt.Errorf("training query %s: %w", q.q.ID, err)
				return
			}
		}
		if record && cfg.rec != nil {
			cfg.rec.on.Store(true)
			defer cfg.rec.on.Store(false)
		}
		if err = run.shareBatch(s, peers, docs, 0, rep); err != nil {
			return
		}
		for r := 0; r < learnRounds && err == nil; r++ {
			err = run.learnRound(s, rep)
		}
	})
	if err != nil {
		s.close()
		return nil, nil, err
	}
	run.took = time.Since(start)
	return s, run, nil
}

// setUpRepeated builds and trains a deployment setupRepeats times and
// keeps the last, untouched. Every earlier one then runs streamWaves churn
// waves, so the waves always start from a freshly trained ring, whatever
// the measured phase did to the one kept. It returns the median set-up
// time in seconds, every set-up's writes and every wave sequence; every
// set-up must send the first one's messages.
func setUpRepeated(cfg stackConfig, in *inputs, learnRounds int, rep *report) (*stack, float64, []*writes, []*churn, error) {
	var (
		s      *stack
		times  []float64
		runs   []*writes
		churns []*churn
	)
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			c := newChurn()
			err := c.waves(s, streamWaves, rep)
			s.close()
			if err != nil {
				return nil, 0, nil, nil, err
			}
			churns = append(churns, c)
			s = nil
			runtime.GC()
		}
		var (
			run *setupRun
			err error
		)
		if s, run, err = setUp(cfg, in, in.docs, learnRounds, false, rep); err != nil {
			return nil, 0, nil, nil, err
		}
		times = append(times, run.took.Seconds())
		runs = append(runs, &run.writes)
		if first := runs[0]; run.shareMsgs != first.shareMsgs || run.learnChanges != first.learnChanges {
			rep.problem("set-up %d did not reproduce set-up 0 (share msgs %d/%d, learning changes %d/%d)",
				i, run.shareMsgs, first.shareMsgs, run.learnChanges, first.learnChanges)
		}
	}
	return s, median(times), runs, churns, nil
}

// churn is what a run's churn waves observed.
type churn struct {
	waveMS []float64
	msgs   int64
	victim *rand.Rand
}

// churnSeed fixes which members the waves make leave. Like the peer names
// and the joiners' names it does not follow the workload seed, so every
// seed's waves reshape the same arcs and only the index content they move
// changes: on deploy's 16-peer ring, victims drawn per seed moved arcs of
// very different sizes and the wave metrics followed them.
const churnSeed = 6

func newChurn() *churn { return &churn{victim: rand.New(rand.NewSource(churnSeed))} }

// wave runs one churn wave as its own operation: a fresh peer joins, a
// seeded choice of another member leaves gracefully, then one repair sweep
// runs. The caller runs it on the stack's clock.
func (c *churn) wave(s *stack, rep *report) error {
	joiner := s.joinerName(len(c.waveMS))
	ctx := s.beginSerial(context.Background())
	m0, _ := s.messages()
	t0 := time.Now()
	var err error
	s.timed(ctx, spanWave, func() {
		if err = s.join(joiner); err != nil {
			err = fmt.Errorf("join %s: %w", joiner, err)
			return
		}
		peers := s.peerAddrs()
		i := c.victim.Intn(len(peers))
		if peers[i] == simnet.Addr(joiner) {
			i = (i + 1) % len(peers)
		}
		if err = s.leave(peers[i]); err != nil {
			err = fmt.Errorf("leave %s: %w", peers[i], err)
			return
		}
		s.repair()
	})
	c.waveMS = append(c.waveMS, float64(time.Since(t0).Nanoseconds())/1e6)
	m1, _ := s.messages()
	c.msgs += m1 - m0
	rep.op(err)
	return err
}

// waves runs n churn waves on the stack's clock and returns the first failure.
func (c *churn) waves(s *stack, n int, rep *report) error {
	var err error
	s.run(func() {
		for i := 0; i < n && err == nil; i++ {
			err = c.wave(s, rep)
		}
	})
	return err
}

// setWrites reports the share and learning metrics of a run's set-ups or
// episodes, which all run the same operations: the median latency over
// every share, the first one's messages per share, and the median over
// them of the learning rate. A set-up's learning rounds differ in the work
// they do, so each rate covers all of them.
func setWrites(rep *report, runs []*writes) {
	var shareUS, rates []float64
	for _, w := range runs {
		shareUS = append(shareUS, w.shareUS...)
		rates = append(rates, w.learnRate())
	}
	rep.set("share_p50_us", "us", median(shareUS))
	rep.set("share_msgs", "count", ratio(float64(runs[0].shareMsgs), float64(len(runs[0].shareUS))))
	rep.set("learn_docs_per_s", "1/s", median(rates))
}

// setChurn reports the churn metrics of a run's wave sequences, which all
// run the same waves: the median over them of the mean wave time (the
// waves of one sequence reshape different arcs and differ widely in cost),
// and the first one's messages per wave.
func setChurn(rep *report, runs []*churn) {
	var means []float64
	for _, c := range runs {
		means = append(means, mean(c.waveMS))
	}
	rep.set("churn_wave_ms", "ms", median(means))
	rep.set("churn_wave_msgs", "count", ratio(float64(runs[0].msgs), float64(len(runs[0].waveMS))))
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
