package main

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/spritedht/sprite/internal/chord"
	"github.com/spritedht/sprite/internal/core"
	"github.com/spritedht/sprite/internal/corpus"
	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/ir"
	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/telemetry"
	"github.com/spritedht/sprite/internal/text"
	"github.com/spritedht/sprite/internal/transport"
	"github.com/spritedht/sprite/internal/vtime"
)

// stackConfig selects one deployment. Every field maps onto an option of
// sprite.New or onto the simulator knob spritebench scale uses (linkDelay).
type stackConfig struct {
	peers       int
	seed        int64
	virtual     bool          // sprite.Options.VirtualTime
	linkDelay   time.Duration // constant one-way simnet delay (0 = none)
	tcp         bool          // pooled loopback TCP transport
	names       []string      // explicit peer names; default "peer0".."peerN-1"
	replicas    int
	parallelism int
	cache       core.CacheConfig
	resilience  core.ResilienceConfig
	// clients is the number of concurrent drivers; with one, spans without
	// a context are attributed to the operation in flight.
	clients int
	// tel turns on the program's telemetry registry; rec interposes the
	// benchmark's recording wrappers. Both are nil on untraced runs.
	tel *telemetry.Registry
	rec *recorder
}

// stack is one assembled deployment: transport → chord → core, built with
// the constructors sprite.New uses, driven through the same public calls as
// the facade's Share, Search, Learn, JoinPeer, LeavePeer and Repair.
type stack struct {
	cfg      stackConfig
	clk      *vtime.Sim           // nil on the wall clock
	sim      *simnet.Network      // nil on TCP
	tcp      *transport.Transport // nil on simnet
	counted  *countingTransport   // message counts on TCP; nil on simnet
	ring     *chord.Ring
	net      *core.Network
	analyzer text.Analyzer
}

func buildStack(cfg stackConfig) (*stack, error) {
	s := &stack{cfg: cfg}
	var tport simnet.Transport
	if cfg.tcp {
		if len(cfg.names) != cfg.peers {
			return nil, errors.New("a TCP deployment needs one loopback address per peer")
		}
		s.tcp = transport.New(transport.WithTelemetry(cfg.tel))
		s.counted = &countingTransport{Transport: s.tcp}
		tport = s.counted
	} else {
		opts := []simnet.Option{simnet.WithTelemetry(cfg.tel)}
		if cfg.virtual {
			s.clk = vtime.NewSim()
			var clk vtime.Clock = s.clk
			if cfg.rec != nil {
				clk = &tracedClock{Clock: s.clk, rec: cfg.rec}
			}
			opts = append(opts, simnet.WithClock(clk))
		}
		if cfg.linkDelay > 0 {
			opts = append(opts, simnet.WithLatency(simnet.UniformLatency(cfg.linkDelay, cfg.linkDelay)))
		}
		s.sim = simnet.New(cfg.seed, opts...)
		tport = s.sim
	}
	if cfg.rec != nil {
		tport = &tracedTransport{inner: tport, rec: cfg.rec}
	}
	s.ring = chord.NewRing(tport, chord.Config{Telemetry: cfg.tel})
	if cfg.names != nil {
		for _, name := range cfg.names {
			if _, err := s.ring.AddNode(name); err != nil {
				s.close()
				return nil, err
			}
		}
		if s.tcp != nil {
			if err := s.tcp.LastError(); err != nil {
				s.close()
				return nil, err
			}
		}
	} else if _, err := s.ring.AddNodes("peer", cfg.peers); err != nil {
		return nil, err
	}
	s.ring.Build()
	resil := cfg.resilience
	resil.JitterSeed = cfg.seed
	var coreClock vtime.Clock
	if s.clk != nil {
		coreClock = s.clk
	}
	c, err := core.NewNetwork(s.ring, core.Config{
		Clock:             coreClock,
		ReplicationFactor: cfg.replicas,
		Parallelism:       cfg.parallelism,
		Telemetry:         cfg.tel,
		Cache:             cfg.cache,
		Resilience:        resil,
	})
	if err != nil {
		s.close()
		return nil, err
	}
	s.net = c
	s.cfg = cfg
	return s, nil
}

// run executes fn with the calling goroutine registered on the virtual
// clock (a plain call on the wall clock), as every driver of a virtual
// deployment must.
func (s *stack) run(fn func()) {
	if s.clk == nil {
		fn()
		return
	}
	s.clk.Run(fn)
}

// close releases sockets; simulated stacks hold none.
func (s *stack) close() {
	if s.tcp != nil {
		s.tcp.Close()
	}
}

// peerAddrs lists the current members, sorted.
func (s *stack) peerAddrs() []simnet.Addr {
	var out []simnet.Addr
	for _, p := range s.net.Peers() {
		out = append(out, p.Addr())
	}
	return out
}

// begin starts one benchmark operation. On a traced stack the returned
// context carries the operation's id to every CallCtx site below.
func (s *stack) begin(ctx context.Context) context.Context {
	if s.cfg.rec == nil {
		return ctx
	}
	return s.cfg.rec.withOp(ctx, s.cfg.clients <= 1)
}

// beginSerial starts one benchmark operation that no other runs alongside
// (set-up, learning and churn always run alone), so on a traced stack the
// spans of call sites without a context are attributed to it as well.
func (s *stack) beginSerial(ctx context.Context) context.Context {
	if s.cfg.rec == nil {
		return ctx
	}
	return s.cfg.rec.withOp(ctx, true)
}

// timed runs fn; on a traced stack it records an op span named name for
// the operation ctx carries.
func (s *stack) timed(ctx context.Context, name string, fn func()) {
	if s.cfg.rec == nil {
		fn()
		return
	}
	s.cfg.rec.timeOp(name, s.cfg.rec.opOf(ctx), fn)
}

// share is the facade's Share: analyze raw text, then core.ShareCtx.
func (s *stack) share(ctx context.Context, peer simnet.Addr, d rawDoc) error {
	var doc *corpus.Document
	s.timed(ctx, spanAnalyzeDoc, func() {
		doc = corpus.NewDocumentFromText(s.analyzer, index.DocID(d.id), d.text)
	})
	if doc.Length == 0 {
		return fmt.Errorf("document %q has no indexable terms", d.id)
	}
	var err error
	s.timed(ctx, spanShare, func() { err = s.net.ShareCtx(ctx, peer, doc) })
	return err
}

// search is the facade's SearchCtx: analyze raw text, then core.SearchCtx.
// A partial result is returned with its error, as the facade does.
func (s *stack) search(ctx context.Context, peer simnet.Addr, query string, k int) (ir.RankedList, error) {
	var terms []string
	s.timed(ctx, spanAnalyzeQuery, func() { terms = s.analyzer.Terms(query) })
	if len(terms) == 0 {
		return nil, fmt.Errorf("query %q has no searchable terms", query)
	}
	var (
		rl  ir.RankedList
		err error
	)
	s.timed(ctx, spanSearch, func() { rl, err = s.net.SearchCtx(ctx, peer, terms, k) })
	return rl, err
}

// learn is the facade's Learn.
func (s *stack) learn(ctx context.Context) (int, error) {
	var (
		changes int
		err     error
	)
	s.timed(ctx, spanLearn, func() { changes, err = s.net.LearnAllCtx(ctx) })
	return changes, err
}

// probe ranks a query without recording it in any history, so quality
// measurements do not train the system they measure.
func (s *stack) probe(peer simnet.Addr, query string, k int) (ir.RankedList, error) {
	return s.net.ProbeCtx(context.Background(), peer, s.analyzer.Terms(query), k)
}

// join is the facade's JoinPeer.
func (s *stack) join(name string) error {
	var boot *chord.Node
	for _, nd := range s.ring.Nodes() {
		if s.sim == nil || s.sim.Alive(nd.Addr()) {
			boot = nd
			break
		}
	}
	if boot == nil {
		return errors.New("no alive peer to bootstrap a join")
	}
	node, err := s.ring.AddNode(name)
	if err != nil {
		return err
	}
	if s.tcp != nil {
		if err := s.tcp.LastError(); err != nil {
			return err
		}
	}
	s.net.Adopt(node)
	if err := node.Join(boot); err != nil {
		return err
	}
	s.ring.StabilizeLists(64)
	s.ring.RepairFingers()
	s.net.InvalidateCaches()
	return nil
}

// leave is the facade's LeavePeer.
func (s *stack) leave(peer simnet.Addr) error {
	if _, err := s.net.Leave(peer); err != nil {
		return err
	}
	s.ring.StabilizeLists(64)
	s.ring.RepairFingers()
	s.net.InvalidateCaches()
	return nil
}

// repair is the facade's Repair.
func (s *stack) repair() {
	s.net.Repair()
	s.net.FlushStaleAll()
}

// joinerName names the peer the r-th churn wave adds: a fresh loopback
// address on TCP, past the ones the deployment started with.
func (s *stack) joinerName(r int) string {
	if s.tcp != nil {
		return fmt.Sprintf("127.0.0.1:%d", deployPortBase+s.cfg.peers+r)
	}
	return fmt.Sprintf("joiner%d", r)
}

// messages is the count of inter-peer RPCs so far and their simulated
// sizes: the simulator's own statistics, or on TCP the same tally kept by
// countingTransport.
func (s *stack) messages() (calls, bytes int64) {
	if s.sim == nil {
		return s.counted.calls.Load(), s.counted.bytes.Load()
	}
	st := s.sim.Stats()
	return st.Calls, st.Bytes
}

// countingTransport tallies the TCP transport's traffic the way the
// simulator does its own: every call between two distinct peers counts,
// with the request's Size, plus the reply's when the call succeeds. It
// costs two atomic adds per call, so untraced runs keep it too.
type countingTransport struct {
	*transport.Transport
	calls, bytes atomic.Int64
}

func (t *countingTransport) Call(from, to simnet.Addr, msg simnet.Message) (simnet.Message, error) {
	reply, err := t.Transport.Call(from, to, msg)
	t.count(from, to, msg, reply, err)
	return reply, err
}

func (t *countingTransport) CallCtx(ctx context.Context, from, to simnet.Addr, msg simnet.Message) (simnet.Message, error) {
	reply, err := t.Transport.CallCtx(ctx, from, to, msg)
	t.count(from, to, msg, reply, err)
	return reply, err
}

func (t *countingTransport) count(from, to simnet.Addr, msg, reply simnet.Message, err error) {
	if from == to {
		return
	}
	t.calls.Add(1)
	size := int64(msg.Size)
	if err == nil {
		size += int64(reply.Size)
	}
	t.bytes.Add(size)
}
