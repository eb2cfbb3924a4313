package transport

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mrpc/internal/msg"
)

// This file is the receive side both transports share: the in-flight count
// behind Quiesce and Stop, and the per-endpoint inbox that runs handlers on
// a claim-based worker pool. A transport keeps only what is its own — the
// simulator's fault rolls and scheduling, the socket transport's framing,
// handshakes and writers — and hands every arrival to an Inbox.

// Flight is one transport's delivery ledger, shared by all of its inboxes:
// the count of admitted deliveries not yet finished, which Quiesce and Stop
// wait on, and the outcome counters of those that reached an inbox.
//
// A WaitGroup cannot express the Quiesce contract: retransmission timers
// add concurrently with a wait at a zero count (disallowed), and counting
// only at schedule time would let Quiesce return while an admitted frame
// sits uncounted between admission and scheduling. A transport instead
// calls Add for each admitted destination while it still holds its own
// admission lock, so the frame is visible to a concurrent waiter before
// admission completes.
type Flight struct {
	mu       sync.Mutex
	zero     sync.Cond // signalled when inflight drops to zero
	inflight int
	inboxes  []*Inbox // every inbox on this flight, retired by Retire

	// Delivered counts frames handed to a handler. DownDrops counts frames
	// an inbox dropped because its endpoint was down or had no handler;
	// a transport adds its own admission-time drops (unknown destination).
	Delivered, DownDrops atomic.Int64
}

// NewFlight returns an empty delivery ledger.
func NewFlight() *Flight {
	f := &Flight{}
	f.zero.L = &f.mu
	return f
}

// Add records k admitted deliveries.
func (f *Flight) Add(k int) {
	f.mu.Lock()
	f.inflight += k
	f.mu.Unlock()
}

// Done retires one delivery: handled, dropped, or written to a socket.
func (f *Flight) Done() {
	f.mu.Lock()
	f.inflight--
	if f.inflight == 0 {
		f.zero.Broadcast()
	}
	f.mu.Unlock()
}

// Wait blocks until no admitted delivery remains in flight.
func (f *Flight) Wait() {
	f.mu.Lock()
	for f.inflight > 0 {
		f.zero.Wait()
	}
	f.mu.Unlock()
}

// Retire waits out the deliveries in flight and then retires every inbox's
// parked workers. The transport must have stopped admitting first. Retire
// is idempotent.
func (f *Flight) Retire() {
	f.Wait()
	f.mu.Lock()
	inboxes := append([]*Inbox(nil), f.inboxes...)
	f.mu.Unlock()
	for _, in := range inboxes {
		in.retire()
	}
}

// maxIdleWorkers bounds how many idle delivery workers an inbox parks. Two
// cover the common call/ack (or call/retransmission) bursts without keeping
// a goroutine per historical peak alive.
const maxIdleWorkers = 2

// Delivery is one inbox item: a decoded message, or wire bytes of this
// process's own encoding (the simulator's EncodeOnWire frames, a socket
// transport's self-delivery), decoded by the worker that delivers them.
type Delivery struct {
	Msg  *msg.NetMsg
	Wire []byte
}

// Inbox is the receive side of one endpoint: its handler and up state, its
// ingress counter, and its delivery worker pool. Embedding an *Inbox gives
// an endpoint SetHandler, SetUp and Up.
//
// The pool's mailbox is claim-based: Dispatch enqueues only after reserving
// a parked worker (idle is decremented first), so queue length never
// exceeds the workers committed to draining it and a blocked handler can
// never delay an unrelated arrival — a delivery that finds no idle worker
// gets a fresh goroutine.
type Inbox struct {
	flight *Flight

	mu      sync.Mutex
	handler Handler
	up      bool

	wmu    sync.Mutex
	idle   int
	closed bool
	mail   chan Delivery

	ingress atomic.Int64

	// group is the last server group a wire delivery decoded. The next
	// decode reuses it while frames keep naming the same members, so a
	// steady stream of calls to one group allocates no group at all. It is
	// atomic because wire deliveries decode concurrently on pooled
	// workers; the group itself is frozen with the message that named it.
	group atomic.Pointer[msg.Group]
}

// NewInbox returns an up inbox on f delivering to h (which may be nil until
// SetHandler).
func (f *Flight) NewInbox(h Handler) *Inbox {
	in := &Inbox{flight: f, handler: h, up: true, mail: make(chan Delivery, maxIdleWorkers)}
	f.mu.Lock()
	f.inboxes = append(f.inboxes, in)
	f.mu.Unlock()
	return in
}

// SetHandler replaces the delivery handler (used on process recovery, when
// a fresh composite protocol instance takes over the endpoint).
func (in *Inbox) SetHandler(h Handler) {
	in.mu.Lock()
	in.handler = h
	in.mu.Unlock()
}

// SetUp marks the endpoint up or down. A down endpoint neither sends nor
// receives: deliveries toward it are dropped at delivery time, modelling a
// crashed site.
func (in *Inbox) SetUp(up bool) {
	in.mu.Lock()
	in.up = up
	in.mu.Unlock()
}

// Up reports whether the endpoint is up.
func (in *Inbox) Up() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.up
}

// Ingress returns the number of frames handed to the handler.
func (in *Inbox) Ingress() int64 { return in.ingress.Load() }

// Dispatch delivers d on a pooled worker. The caller has counted d on the
// inbox's Flight; the count is retired once the handler returns or the
// frame is dropped. d goes to a parked worker when one is free to claim
// it, and to a fresh goroutine otherwise; the fresh worker parks after its
// delivery if the idle quota allows, so a busy endpoint converges to a
// small pool that spawns nothing in steady state.
func (in *Inbox) Dispatch(d Delivery) {
	in.wmu.Lock()
	if in.closed {
		// Retire already ran (only reachable for a delivery racing Stop on
		// an already-counted frame): drop.
		in.wmu.Unlock()
		in.flight.Done()
		return
	}
	if in.idle > 0 {
		in.idle-- // reserve the worker: the mailbox send below cannot block
		in.wmu.Unlock()
		in.mail <- d
		return
	}
	in.wmu.Unlock()
	// A plain `go` over a method call avoids the closure and thread-handle
	// allocations proc.Go would add on the hot path of every arrival. This
	// package is exempt from the goroutine-discipline rule: the transport
	// quiesces its workers through the Flight count, and endpoint crashes
	// are observed at delivery via `up`.
	go in.work(d)
}

// work delivers first, then joins the inbox's worker pool: park (up to the
// idle quota) and drain claimed deliveries until the pool is retired.
func (in *Inbox) work(first Delivery) {
	d := first
	for {
		in.deliver(d)
		in.wmu.Lock()
		if in.closed || in.idle >= maxIdleWorkers {
			in.wmu.Unlock()
			return
		}
		in.idle++
		in.wmu.Unlock()
		var ok bool
		if d, ok = <-in.mail; !ok {
			return
		}
	}
}

// deliver hands d to the handler on the calling goroutine, decoding its
// wire bytes first. Args are borrowed from the wire buffer, which is never
// recycled, so retained Args stay valid (D13); the decoded Server is shared
// with earlier deliveries to this inbox that named the same group.
func (in *Inbox) deliver(d Delivery) {
	defer in.flight.Done()
	m := d.Msg
	if d.Wire != nil {
		var prev msg.Group
		if g := in.group.Load(); g != nil {
			prev = *g
		}
		decoded, last, err := msg.DecodeSharedReuse(d.Wire, prev)
		if err != nil {
			// These bytes are this process's own encoding: a failure is a
			// codec bug, not a network fault, so surface it loudly.
			panic(fmt.Sprintf("transport: wire codec round-trip: %v", err))
		}
		if len(last) != len(prev) || len(last) > 0 && &last[0] != &prev[0] {
			// A fresh header only when the group changed: storing &last
			// directly would move last to the heap on every delivery.
			g := last
			in.group.Store(&g)
		}
		m = decoded
	}
	in.mu.Lock()
	h, up := in.handler, in.up
	in.mu.Unlock()
	if !up || h == nil {
		in.flight.DownDrops.Add(1)
		return
	}
	in.flight.Delivered.Add(1)
	in.ingress.Add(1)
	h(m)
}

// retire closes the mailbox, so parked workers exit; it is idempotent.
func (in *Inbox) retire() {
	in.wmu.Lock()
	if !in.closed {
		in.closed = true
		close(in.mail)
	}
	in.wmu.Unlock()
}
