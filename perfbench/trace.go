package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/vtime"
)

// Span kinds. An op span is one benchmark operation (a search, a share, a
// learning round, a churn wave, one text analysis); the others are recorded
// by the wrappers the traced run interposes between the layers.
const (
	kindOp     = "op"
	kindCall   = "call"   // simnet.Transport.Call/CallCtx, caller side
	kindHandle = "handle" // simnet.Handler.HandleMessage, callee side
	kindSleep  = "sleep"  // vtime.Clock.Sleep on the clock simnet waits on
)

// Op span names: the benchmark's calls into the program's layers.
const (
	spanAnalyzeDoc   = "text.analyze.doc"
	spanAnalyzeQuery = "text.analyze.query"
	spanShare        = "core.share"
	spanSearch       = "core.search"
	spanLearn        = "core.learn"
	spanWave         = "churn.wave"
)

// Message types the per-layer metrics single out.
const (
	msgNextHop     = "chord.next_hop"
	msgGetPostings = "sprite.get_postings"
	msgPublish     = "sprite.publish"
	msgReplica     = "sprite.replica"
	msgPoll        = "sprite.poll"
	msgHandoff     = "sprite.repair.handoff"
	msgDigest      = "sprite.repair.digest"
	msgPush        = "sprite.repair.push"
)

// span is one timed interval. Times are nanoseconds since the recorder's
// epoch on the monotonic wall clock.
type span struct {
	kind  string
	name  string // op name, or the message type of a call or handler
	op    int64  // id of the benchmark operation that caused it (0 = none)
	start int64
	end   int64
	bytes int // request+reply simulated size, for calls
}

func (s span) dur() int64 { return s.end - s.start }

// recorder keeps every span of a traced run in memory and writes them out
// when the run ends.
type recorder struct {
	epoch time.Time
	// on gates recording: set-up runs through the wrappers unrecorded, so
	// the spans cover the measured operations only.
	on atomic.Bool
	// current is the operation in flight. With one client it attributes
	// spans whose call site carries no context (and handler spans, which
	// never see one); with several clients it stays 0.
	current atomic.Int64
	nextOp  atomic.Int64

	mu      sync.Mutex
	spans   []span
	samples []any // payloads kept for the wire codec measurement
	seen    int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s span) {
	if !r.on.Load() {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// maxSamples bounds the payload sample the wire measurement re-encodes;
// sampleEvery spreads it over the run instead of its first calls.
const (
	maxSamples  = 4096
	sampleEvery = 7
)

func (r *recorder) sample(payloads ...any) {
	if !r.on.Load() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range payloads {
		if p == nil {
			continue
		}
		r.seen++
		if r.seen%sampleEvery == 0 && len(r.samples) < maxSamples {
			r.samples = append(r.samples, p)
		}
	}
}

type opKey struct{}

// withOp starts a new benchmark operation: it returns a context carrying
// the operation's id, and marks it as the operation in flight when single
// is set.
func (r *recorder) withOp(ctx context.Context, single bool) context.Context {
	id := r.nextOp.Add(1)
	if single {
		r.current.Store(id)
	}
	return context.WithValue(ctx, opKey{}, id)
}

// opOf attributes a span: the id the context carries, else the operation in
// flight.
func (r *recorder) opOf(ctx context.Context) int64 {
	if id, ok := ctx.Value(opKey{}).(int64); ok {
		return id
	}
	return r.current.Load()
}

// timeOp records fn as an op span named name under operation id.
func (r *recorder) timeOp(name string, id int64, fn func()) {
	start := r.now()
	fn()
	r.add(span{kind: kindOp, name: name, op: id, start: start, end: r.now()})
}

// writeTo dumps the spans, gzip-compressed, as tab-separated lines: kind,
// name, op, start_ns, end_ns, bytes.
func (r *recorder) writeTo(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "kind\tname\top\tstart_ns\tend_ns\tbytes")
	r.mu.Lock()
	for _, s := range r.spans {
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%d\n", s.kind, s.name, s.op, s.start, s.end, s.bytes)
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}

// tracedTransport records a call span around every RPC and wraps every
// registered handler, so both sides of each message are timed.
type tracedTransport struct {
	inner simnet.Transport
	rec   *recorder
}

func (t *tracedTransport) Register(addr simnet.Addr, h simnet.Handler) {
	t.inner.Register(addr, &tracedHandler{inner: h, rec: t.rec})
}

func (t *tracedTransport) Unregister(addr simnet.Addr) { t.inner.Unregister(addr) }

func (t *tracedTransport) Alive(addr simnet.Addr) bool { return t.inner.Alive(addr) }

func (t *tracedTransport) Call(from, to simnet.Addr, msg simnet.Message) (simnet.Message, error) {
	op := t.rec.current.Load()
	start := t.rec.now()
	reply, err := t.inner.Call(from, to, msg)
	t.finish(op, start, msg, reply)
	return reply, err
}

func (t *tracedTransport) CallCtx(ctx context.Context, from, to simnet.Addr, msg simnet.Message) (simnet.Message, error) {
	op := t.rec.opOf(ctx)
	start := t.rec.now()
	reply, err := t.inner.CallCtx(ctx, from, to, msg)
	t.finish(op, start, msg, reply)
	return reply, err
}

func (t *tracedTransport) finish(op, start int64, msg, reply simnet.Message) {
	t.rec.add(span{kind: kindCall, name: msg.Type, op: op, start: start, end: t.rec.now(), bytes: msg.Size + reply.Size})
	t.rec.sample(msg.Payload, reply.Payload)
}

type tracedHandler struct {
	inner simnet.Handler
	rec   *recorder
}

func (h *tracedHandler) HandleMessage(from simnet.Addr, msg simnet.Message) (simnet.Message, error) {
	start := h.rec.now()
	reply, err := h.inner.HandleMessage(from, msg)
	h.rec.add(span{kind: kindHandle, name: msg.Type, op: h.rec.current.Load(), start: start, end: h.rec.now()})
	return reply, err
}

// tracedClock records the wall time spent inside Sleep on the clock the
// simulator waits out link delays on; every other method passes through.
type tracedClock struct {
	vtime.Clock
	rec *recorder
}

func (c *tracedClock) Sleep(ctx context.Context, d time.Duration) error {
	start := c.rec.now()
	err := c.Clock.Sleep(ctx, d)
	c.rec.add(span{kind: kindSleep, name: "sleep", op: c.rec.opOf(ctx), start: start, end: c.rec.now()})
	return err
}

// traceView indexes a run's spans for the per-layer computations.
type traceView struct {
	ops   map[string][]span // op spans by name
	byOp  map[int64][]span  // call and sleep spans by operation
	calls []span
	hands []span
}

func (r *recorder) view() *traceView {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := &traceView{ops: map[string][]span{}, byOp: map[int64][]span{}}
	for _, s := range r.spans {
		switch s.kind {
		case kindOp:
			v.ops[s.name] = append(v.ops[s.name], s)
		case kindCall:
			v.calls = append(v.calls, s)
			v.byOp[s.op] = append(v.byOp[s.op], s)
		case kindHandle:
			v.hands = append(v.hands, s)
		case kindSleep:
			v.byOp[s.op] = append(v.byOp[s.op], s)
		}
	}
	return v
}

// opCalls returns the call spans an operation caused.
func (v *traceView) opCalls(op int64) []span {
	var out []span
	for _, s := range v.byOp[op] {
		if s.kind == kindCall {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes is, per op span of the given name, the op's duration minus the
// union of the RPC call spans it caused (its time inside the layer that
// issued the op, excluding waits on the network below).
func (v *traceView) selfTimes(name string) []float64 {
	var out []float64
	for _, o := range v.ops[name] {
		out = append(out, float64(o.dur()-unionLen(v.opCalls(o.op))))
	}
	return out
}

// overlaps is, per op span, the summed duration of its call spans divided
// by their union: 1 when they ran one after another, more when the fan-out
// overlapped them.
func (v *traceView) overlaps(name string) []float64 {
	var out []float64
	for _, o := range v.ops[name] {
		calls := v.opCalls(o.op)
		u := unionLen(calls)
		if u == 0 {
			continue
		}
		var sum int64
		for _, c := range calls {
			sum += c.dur()
		}
		out = append(out, float64(sum)/float64(u))
	}
	return out
}

// durations collects the durations of the op spans of one name.
func (v *traceView) durations(name string) []float64 {
	var out []float64
	for _, o := range v.ops[name] {
		out = append(out, float64(o.dur()))
	}
	return out
}

// handlerDurs collects the handler durations of one message type.
func (v *traceView) handlerDurs(msgType string) []float64 {
	var out []float64
	for _, h := range v.hands {
		if h.name == msgType {
			out = append(out, float64(h.dur()))
		}
	}
	return out
}

// callSelfMean is the transport's mean self time per call: the summed call
// spans minus the summed handler spans they ran, over the number of calls.
// Handlers cannot be paired with their calls on a real transport (they run
// on the server's goroutines), but every call that reached its peer ran
// exactly one handler, so the sums pair up.
func (v *traceView) callSelfMean() float64 {
	if len(v.calls) == 0 {
		return 0
	}
	var sum int64
	for _, c := range v.calls {
		sum += c.dur()
	}
	for _, h := range v.hands {
		sum -= h.dur()
	}
	return float64(sum) / float64(len(v.calls))
}

// countCalls counts the call spans whose type is in types (any type when
// none is given) and whose operation is named opName (any operation when
// opName is "").
func (v *traceView) countCalls(opName string, types ...string) int {
	want := map[string]bool{}
	for _, t := range types {
		want[t] = true
	}
	ops := map[int64]bool{}
	for _, o := range v.ops[opName] {
		ops[o.op] = true
	}
	n := 0
	for _, c := range v.calls {
		if (len(types) == 0 || want[c.name]) && (opName == "" || ops[c.op]) {
			n++
		}
	}
	return n
}

// sumCallBytes sums the simulated bytes of calls of one type caused by ops
// of one name.
func (v *traceView) sumCallBytes(opName, msgType string) int {
	total := 0
	for _, o := range v.ops[opName] {
		for _, c := range v.opCalls(o.op) {
			if c.name == msgType {
				total += c.bytes
			}
		}
	}
	return total
}

// sleepWall sums, over ops of one name, the wall time during which at least
// one of the op's sleeps on the traced clock was in progress.
func (v *traceView) sleepWall(opName string) int64 {
	var total int64
	for _, o := range v.ops[opName] {
		var sleeps []span
		for _, s := range v.byOp[o.op] {
			if s.kind == kindSleep {
				sleeps = append(sleeps, s)
			}
		}
		total += unionLen(sleeps)
	}
	return total
}

// unionLen is the total length covered by the spans' intervals.
func unionLen(spans []span) int64 {
	if len(spans) == 0 {
		return 0
	}
	iv := make([][2]int64, len(spans))
	for i, s := range spans {
		iv[i] = [2]int64{s.start, s.end}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curS, curE := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > curE {
			total += curE - curS
			curS, curE = x[0], x[1]
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	return total + curE - curS
}
