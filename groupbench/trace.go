package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mrpc"
	"mrpc/internal/event"
	"mrpc/internal/msg"
	"mrpc/internal/trace"
	"mrpc/internal/transport"
)

// The tracer records spans at the layer boundaries the program already
// exposes — the transport seam, the event bus observer, the server App and
// the caller's own stub use — without changing the program. A span is
// (name, start, end, parent span, call key). Spans on one goroutine nest
// strictly, so a span's children are the spans that ended on its goroutine
// after it started; its self time is its length minus what they cover.
// Aggregates are kept for every span of the traced window; the spans
// themselves are kept in memory, up to shardSpans per shard, and written
// out at the end.

const (
	shards     = 64
	shardSpans = 2000 // spans each shard keeps for the span file
	maxNames   = 256  // distinct span names (handler names are a few dozen)
	maxDone    = 64   // unclaimed finished spans kept per goroutine
)

// The spans the benchmark opens itself, by name id. Bus handler spans are
// named after their registration ("TotalOrder.assignOrder").
const (
	idSend    int32 = iota // Push/Multicast on an endpoint
	idDeliver              // the delivery handler: the receive-side stack
	idApp                  // server execution
	idStub                 // the caller's Writer/Reader use
	idCall                 // Call, CallAsync, Collect, PipelineEnd
)

// fixedSpans names the benchmark's own spans, in id order. A root span
// never has a parent the tracer can see, so it is not kept for claiming.
var fixedSpans = [...]struct {
	name string
	root bool
}{
	idSend:    {"transport.send", false},
	idDeliver: {"transport.deliver", true},
	idApp:     {"app.exec", false},
	idStub:    {"stub.marshal", true},
	idCall:    {"client.call", true},
}

// noKey marks a span that belongs to no one call.
var noKey msg.CallKey

// clientKey is the key of a client-side span whose call id the facade does
// not return (a synchronous Call).
func clientKey(n *mrpc.Node) msg.CallKey { return msg.CallKey{Client: n.ID()} }

type spanRec struct {
	id, parent int64
	name       int32
	start, end int64 // ns since the tracer's epoch
	key        msg.CallKey
}

// doneSpan is a finished span still waiting for its parent to finish.
type doneSpan struct {
	start, end int64
	ovh        int64 // tracer time spent on the span after its end
	rec        int32 // index in the shard's kept spans, or -1
}

type gstate struct{ done []doneSpan }

// gshard holds the state of the goroutines that hash to it. Aggregates,
// span ids and kept spans are per shard, so the tracer's hot path takes
// one mostly uncontended lock and touches no shared counter.
type gshard struct {
	mu     sync.Mutex
	m      map[uintptr]*gstate
	names  map[string]int32 // cache of the tracer's name ids
	agg    [maxNames]layerAgg
	nextID int64 // next id of the block the shard holds
	endID  int64 // end of that block
	spans  []spanRec
}

type tracer struct {
	clock func() int64 // ns since the tracer was made; a field so tests can fake it
	on    atomic.Bool

	nameMu sync.Mutex
	names  map[string]int32
	list   []string
	roots  [maxNames]bool // spans that never have a parent

	ids    atomic.Int64 // span ids handed out to shards in blocks
	shards [shards]gshard

	// Clock costs in ns: a wall-clock read, which the event bus makes
	// around each handler it reports, and the tracer's own monotonic read.
	// Each span's self time is corrected for the read that falls inside it
	// and its parent's for the reads around it.
	busClock, monoClock int64

	// Counted by the transport decorator.
	orderMsgs, retrans, wireBytes atomic.Int64
	sentMu                        sync.Mutex
	sentCur, sentOld              map[keyDest]struct{}
	samples                       []*msg.NetMsg
	sendOps                       atomic.Int64

	// Counted by the trace sink.
	batches, batchedMsgs, relays, dups atomic.Int64
}

// keyDest identifies one destination's copy of a call.
type keyDest struct {
	key msg.CallKey
	to  msg.ProcID
}

func newTracer() *tracer {
	epoch := time.Now()
	t := &tracer{
		clock:   func() int64 { return int64(time.Since(epoch)) },
		names:   make(map[string]int32),
		sentCur: make(map[keyDest]struct{}),
		sentOld: make(map[keyDest]struct{}),
	}
	for i := range t.shards {
		sh := &t.shards[i]
		sh.m = make(map[uintptr]*gstate)
		sh.names = make(map[string]int32)
		sh.spans = make([]spanRec, 0, shardSpans)
	}
	for _, f := range fixedSpans {
		t.nameID(f.name, f.root)
	}
	t.busClock = clockCost(func() int64 { return time.Now().UnixNano() })
	t.monoClock = clockCost(t.now)
	return t
}

func (t *tracer) now() int64 { return t.clock() }

// clockCost returns what one call of read costs in ns: the least over a
// few timed batches, which is the uncontended cost.
func clockCost(read func() int64) int64 {
	const n = 2000
	best := int64(math.MaxInt64)
	for r := 0; r < 5; r++ {
		s := time.Now()
		for i := 0; i < n; i++ {
			read()
		}
		best = min(best, int64(time.Since(s))/n)
	}
	return best
}

// nameID interns a span name. The hot path asks its shard's cache first.
func (t *tracer) nameID(name string, root bool) int32 {
	t.nameMu.Lock()
	defer t.nameMu.Unlock()
	if id, ok := t.names[name]; ok {
		return id
	}
	id := int32(len(t.list))
	if id >= maxNames {
		id = maxNames - 1 // overflow bucket; never reached by this program
	} else {
		t.list = append(t.list, name)
		t.roots[id] = root
	}
	t.names[name] = id
	return id
}

// begin returns the start of a span opened by the benchmark, or -1 when
// tracing is off.
func (t *tracer) begin() int64 {
	if t == nil || !t.on.Load() {
		return -1
	}
	return t.now()
}

// end finishes a span opened by begin.
func (t *tracer) end(name int32, start int64, key msg.CallKey) {
	if start < 0 {
		return
	}
	t.finish(name, "", start, t.now(), key, t.monoClock)
}

// finish records a span that ran on the calling goroutine from start to
// end: it claims the goroutine's finished spans that started inside it as
// children, credits its self time to its name, and leaves itself to be
// claimed by an enclosing span. A span named by a handler string passes
// name -1; clock is the cost of the clock read that brackets the span.
func (t *tracer) finish(name int32, handler string, start, end int64, key msg.CallKey, clock int64) {
	g := getg()
	sh := &t.shards[(uint64(g)*0x9e3779b97f4a7c15)>>(64-6)] // 64 shards
	sh.mu.Lock()
	if name < 0 {
		id, ok := sh.names[handler]
		if !ok {
			id = t.nameID(handler, false)
			sh.names[handler] = id
		}
		name = id
	}
	if sh.nextID == sh.endID {
		const block = 1024
		sh.endID = t.ids.Add(block) + 1
		sh.nextID = sh.endID - block
	}
	id := sh.nextID
	sh.nextID++
	st := sh.m[g]
	if st == nil {
		st = &gstate{done: make([]doneSpan, 0, maxDone)}
		sh.m[g] = st
	}
	var cover int64
	for len(st.done) > 0 {
		c := &st.done[len(st.done)-1]
		if c.start < start {
			break
		}
		cover += c.end - c.start + c.ovh
		if c.rec >= 0 {
			r := &sh.spans[c.rec]
			r.parent = id
			if r.key == noKey {
				r.key = key
			}
		}
		st.done = st.done[:len(st.done)-1]
	}
	a := &sh.agg[name]
	a.n++
	a.selfNs += end - start - cover - clock
	rec := int32(-1)
	if len(sh.spans) < shardSpans {
		rec = int32(len(sh.spans))
		sh.spans = append(sh.spans, spanRec{id: id, name: name, start: start, end: end, key: key})
	}
	if !t.roots[name] {
		if len(st.done) == maxDone {
			// The oldest entries belong to spans whose parents the
			// tracer cannot see (timer goroutines); let them go.
			n := copy(st.done, st.done[maxDone/2:])
			st.done = st.done[:n]
		}
		st.done = append(st.done, doneSpan{start: start, end: end, rec: rec})
		st.done[len(st.done)-1].ovh = t.now() - end + clock
	}
	sh.mu.Unlock()
}

// observer returns the bus observer that turns handler invocations into
// spans. The bus reports a handler's duration when it returns.
func (t *tracer) observer() event.Observer {
	return func(_ event.Type, handler string, d time.Duration, _ bool) {
		if !t.on.Load() {
			return
		}
		end := t.now()
		t.finish(-1, handler, end-int64(d), end, noKey, t.busClock)
	}
}

// Record implements mrpc.TraceSink: it counts the structured events the
// per-layer metrics need.
func (t *tracer) Record(e trace.Event) {
	if !t.on.Load() {
		return
	}
	switch e.Kind {
	case trace.KBatchFlushed:
		t.batches.Add(1)
		t.batchedMsgs.Add(int64(e.Op))
	case trace.KRelay:
		t.relays.Add(1)
	case trace.KDupDropped:
		t.dups.Add(1)
	}
}

// wrap decorates a transport for tracing; encode says whether it puts
// encoded frames on the wire. Untraced, it returns net unchanged.
func (t *tracer) wrap(net transport.Transport, encode bool) transport.Transport {
	if t == nil {
		return net
	}
	return &tracedTransport{Transport: net, t: t, encode: encode}
}

// wrapApp times a server's executions. Untraced, it returns a unchanged.
func (t *tracer) wrapApp(a mrpc.App) mrpc.App {
	if t == nil {
		return a
	}
	return tracedApp{App: a, t: t}
}

// tracedApp times server execution.
type tracedApp struct {
	mrpc.App
	t *tracer
}

func (a tracedApp) Pop(th *mrpc.Thread, op mrpc.OpID, args []byte) []byte {
	s := a.t.begin()
	out := a.App.Pop(th, op, args)
	a.t.end(idApp, s, noKey)
	return out
}

// tracedTransport decorates a transport: every endpoint it attaches times
// Push/Multicast and the delivery handler, and classifies outbound frames.
type tracedTransport struct {
	transport.Transport
	t      *tracer
	encode bool // the transport puts encoded frames on the wire
}

func (tt *tracedTransport) Attach(id msg.ProcID, h transport.Handler) (transport.Endpoint, error) {
	e := &tracedEndpoint{t: tt.t, id: id, encode: tt.encode}
	inner, err := tt.Transport.Attach(id, e.wrap(h))
	if err != nil {
		return nil, err
	}
	e.Endpoint = inner
	return e, nil
}

type tracedEndpoint struct {
	transport.Endpoint
	t      *tracer
	id     msg.ProcID
	encode bool
}

func (e *tracedEndpoint) wrap(h transport.Handler) transport.Handler {
	if h == nil {
		return nil
	}
	return func(m *msg.NetMsg) {
		s := e.t.begin()
		h(m)
		e.t.end(idDeliver, s, msg.CallKey{Client: m.Client, ID: m.ID})
	}
}

func (e *tracedEndpoint) SetHandler(h transport.Handler) { e.Endpoint.SetHandler(e.wrap(h)) }

func (e *tracedEndpoint) Push(to msg.ProcID, m *msg.NetMsg) {
	s := e.t.begin()
	if s >= 0 {
		e.classify(m, msg.Group{to})
	}
	e.Endpoint.Push(to, m)
	e.t.end(idSend, s, msg.CallKey{Client: m.Client, ID: m.ID})
}

func (e *tracedEndpoint) Multicast(g msg.Group, m *msg.NetMsg) {
	s := e.t.begin()
	if s >= 0 {
		e.classify(m, g)
	}
	e.Endpoint.Multicast(g, m)
	e.t.end(idSend, s, msg.CallKey{Client: m.Client, ID: m.ID})
}

// classify counts ordering messages, origin retransmissions of calls and
// wire bytes in a frame offered to dests, and samples frames for the codec
// timing.
func (e *tracedEndpoint) classify(m *msg.NetMsg, dests msg.Group) {
	t := e.t
	if n := t.sendOps.Add(1); n%16 == 0 {
		t.sentMu.Lock()
		if len(t.samples) < 2048 {
			t.samples = append(t.samples, m)
		}
		t.sentMu.Unlock()
	}
	if e.encode {
		t.wireBytes.Add(int64(m.EncodedLen() * len(dests)))
	}
	one := [1]*msg.NetMsg{m}
	subs := one[:]
	if m.Type == msg.OpBatch {
		subs = m.Batch
	}
	for _, s := range subs {
		switch s.Type {
		case msg.OpOrder, msg.OpOrderQuery, msg.OpOrderInfo:
			t.orderMsgs.Add(int64(len(dests)))
		case msg.OpCall:
			if s.Client == e.id {
				t.sentCall(msg.CallKey{Client: s.Client, ID: s.ID}, dests)
			}
		}
	}
}

// sentCall counts a call's copies to dests that its origin already sent
// once: those are retransmissions. Two generations of bounded maps keep
// the memory flat; a retransmission comes long before a key ages out.
func (t *tracer) sentCall(key msg.CallKey, dests msg.Group) {
	t.sentMu.Lock()
	for _, to := range dests {
		k := keyDest{key, to}
		_, cur := t.sentCur[k]
		_, old := t.sentOld[k]
		if cur || old {
			t.retrans.Add(1)
			continue
		}
		if len(t.sentCur) >= 1<<17 {
			t.sentOld, t.sentCur = t.sentCur, make(map[keyDest]struct{}, 1<<17)
		}
		t.sentCur[k] = struct{}{}
	}
	t.sentMu.Unlock()
}

// codecNs times the wire codec on the sampled frames: the encoder the
// transports call per send and the decoder they call per delivery. Each is
// the median over a few passes over the sample.
func (t *tracer) codecNs() (enc, dec float64, err error) {
	t.sentMu.Lock()
	frames := append([]*msg.NetMsg(nil), t.samples...)
	t.sentMu.Unlock()
	if len(frames) == 0 {
		return 0, 0, nil
	}
	wires := make([][]byte, len(frames))
	var encs, decs [7]float64
	for p := range encs {
		s := time.Now()
		for i, m := range frames {
			wires[i] = m.Encode()
		}
		encs[p] = float64(time.Since(s).Nanoseconds()) / float64(len(frames))
		s = time.Now()
		for _, w := range wires {
			if _, err := msg.DecodeShared(w); err != nil {
				return 0, 0, fmt.Errorf("decoding a sampled frame: %w", err)
			}
		}
		decs[p] = float64(time.Since(s).Nanoseconds()) / float64(len(frames))
	}
	return median(encs[:]), median(decs[:]), nil
}

// layerAgg is one span name's totals.
type layerAgg struct {
	n      int64
	selfNs int64
}

// byName sums the shards' per-name aggregates, and counts the spans.
func (t *tracer) byName() (map[string]layerAgg, int64) {
	t.nameMu.Lock()
	names := append([]string(nil), t.list...)
	t.nameMu.Unlock()
	out := make(map[string]layerAgg, len(names))
	var spans int64
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for id, name := range names {
			a := out[name]
			a.n += sh.agg[id].n
			a.selfNs += sh.agg[id].selfNs
			out[name] = a
			spans += sh.agg[id].n
		}
		sh.mu.Unlock()
	}
	return out, spans
}

// writeSpans writes the kept spans as JSON lines to path and returns how
// many it wrote. A span that did not know its call inherits the key of its
// nearest ancestor that did.
func (t *tracer) writeSpans(path string) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	t.nameMu.Lock()
	names := append([]string(nil), t.list...)
	t.nameMu.Unlock()
	w := bufio.NewWriter(f)
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		// A span's ancestors ran on its goroutine, so they are in its shard.
		byID := make(map[int64]*spanRec, len(sh.spans))
		for j := range sh.spans {
			byID[sh.spans[j].id] = &sh.spans[j]
		}
		for _, s := range sh.spans {
			for p := byID[s.parent]; s.key == noKey && p != nil; p = byID[p.parent] {
				s.key = p.key
			}
			fmt.Fprintf(w, `{"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d,"client":%d,"call":%d}`+"\n",
				s.id, s.parent, names[s.name], s.start, s.end, s.key.Client, s.key.ID)
		}
		n += len(sh.spans)
		sh.mu.Unlock()
	}
	if err := w.Flush(); err != nil {
		return n, err
	}
	return n, f.Close()
}
