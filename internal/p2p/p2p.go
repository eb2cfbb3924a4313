// Package p2p is the compact point-to-point RPC specialization the paper
// anticipates in §4.1: "Point-to-point RPC can be seen as a special case
// in this implementation, although in practice it would likely be
// implemented separately to obtain a more compact and efficient protocol."
//
// It keeps the configurable *semantics* — reliable communication, bounded
// termination, unique execution — but fuses them into straight-line code:
// no event bus, no handler priorities, no group tables. Ordering,
// acceptance, collation and membership make no sense with a single server
// and are omitted, exactly the specialization the paper describes.
// Experiment E14 measures what the fusion buys over the full composite.
package p2p

import (
	"fmt"
	"sync"
	"time"

	"mrpc/internal/clock"
	"mrpc/internal/msg"
	"mrpc/internal/proc"
	"mrpc/internal/transport"
)

// Options selects the semantics of a point-to-point endpoint pair. The
// zero value is an unreliable, unbounded, at-least-once client.
type Options struct {
	// Reliable enables retransmission until a reply (or ack) arrives.
	Reliable bool
	// RetransTimeout is the retransmission period (default 20ms).
	RetransTimeout time.Duration
	// Bounded enables per-call deadlines.
	Bounded bool
	// TimeBound is the per-call deadline (default 1s).
	TimeBound time.Duration
	// Unique enables duplicate suppression at the server (exactly-once
	// together with Reliable).
	Unique bool
}

// Handler executes one operation at a p2p server.
type Handler func(th *proc.Thread, op msg.OpID, args []byte) []byte

// Server is the compact point-to-point server.
type Server struct {
	id      msg.ProcID
	ep      transport.Endpoint
	handler Handler
	unique  bool

	mu         sync.Mutex
	oldCalls   map[msg.CallKey]bool
	oldResults map[msg.CallKey][]byte
	// floor is each client's low-water mark, the highest seen: every call
	// below it is settled at the client, so its entries are gone from
	// oldCalls/oldResults and a copy that still arrives is dropped.
	floor   map[msg.ProcID]msg.CallID
	threads *proc.Threads
}

// NewServer attaches a compact server for id to the transport.
func NewServer(net transport.Transport, id msg.ProcID, opts Options, h Handler) (*Server, error) {
	if h == nil {
		return nil, fmt.Errorf("p2p: handler is required")
	}
	s := &Server{
		id:         id,
		handler:    h,
		unique:     opts.Unique,
		oldCalls:   make(map[msg.CallKey]bool),
		oldResults: make(map[msg.CallKey][]byte),
		floor:      make(map[msg.ProcID]msg.CallID),
		threads:    proc.NewThreads(),
	}
	ep, err := net.Attach(id, s.handle)
	if err != nil {
		return nil, err
	}
	s.ep = ep
	return s, nil
}

// Close kills in-flight executions (their replies are suppressed).
func (s *Server) Close() { s.threads.KillAll() }

func (s *Server) handle(m *msg.NetMsg) {
	if m.Type == msg.OpCall {
		s.handleCall(m)
	}
}

// raiseFloor applies the low-water mark a call carries: the client has
// settled every call below it, which is the cumulative acknowledgement of
// their retained results. The caller holds s.mu.
func (s *Server) raiseFloor(client msg.ProcID, mark msg.CallID) {
	floor := s.floor[client]
	if mark <= floor {
		return
	}
	if int(mark-floor) <= len(s.oldCalls) {
		for id := floor; id < mark; id++ {
			delete(s.oldCalls, msg.CallKey{Client: client, ID: id})
			delete(s.oldResults, msg.CallKey{Client: client, ID: id})
		}
	} else {
		for k := range s.oldCalls {
			if k.Client == client && k.ID < mark {
				delete(s.oldCalls, k)
				delete(s.oldResults, k)
			}
		}
	}
	s.floor[client] = mark
}

func (s *Server) handleCall(m *msg.NetMsg) {
	key := m.Key()
	if s.unique {
		s.mu.Lock()
		s.raiseFloor(m.Client, m.AckID)
		if m.ID < s.floor[m.Client] {
			s.mu.Unlock()
			return // settled at the client: a stale duplicate
		}
		if res, done := s.oldResults[key]; done {
			s.mu.Unlock()
			s.reply(m, res)
			return
		}
		if s.oldCalls[key] {
			s.mu.Unlock()
			return // in progress: drop the duplicate
		}
		s.oldCalls[key] = true
		s.mu.Unlock()
	}

	th := s.threads.For(m.Client, m.Inc)
	res := s.handler(th, m.Op, m.Args)
	if th.IsKilled() {
		if s.unique {
			s.mu.Lock()
			delete(s.oldCalls, key)
			s.mu.Unlock()
		}
		return
	}

	if s.unique {
		s.mu.Lock()
		s.oldResults[key] = res
		s.mu.Unlock()
	}
	s.reply(m, res)
}

func (s *Server) reply(call *msg.NetMsg, res []byte) {
	s.ep.Push(call.Sender, &msg.NetMsg{
		Type:   msg.OpReply,
		ID:     call.ID,
		Client: call.Client,
		Op:     call.Op,
		Args:   res,
		Sender: s.id,
	})
}

// p2pCall is one in-flight call record. Records are recycled through the
// client's freelist: every completion path first dequeues the record from
// the pending table under the client mutex, so each armed record has
// exactly one completer — the done channel (capacity 1) carries exactly
// one token per arming and is safely reusable, with no sync.Once and no
// per-call allocation in steady state.
type p2pCall struct {
	op      msg.OpID
	args    []byte
	to      msg.ProcID
	result  []byte
	status  msg.Status
	done    chan struct{}
	expired clock.Timer
	next    *p2pCall // freelist link
}

// complete finishes a dequeued record. The caller must be its sole owner
// (having removed it from the pending table); nothing may touch the record
// after the token is sent except the parked Call.
func (c *p2pCall) complete(status msg.Status, result []byte) {
	c.status = status
	c.result = result
	c.done <- struct{}{}
}

// Client is the compact point-to-point client.
type Client struct {
	id   msg.ProcID
	ep   transport.Endpoint
	clk  clock.Clock
	opts Options

	mu      sync.Mutex
	nextID  msg.CallID
	pending map[msg.CallID]*p2pCall
	free    *p2pCall

	// loop is the retransmission thread (nil when Reliable is off).
	loop *proc.Thread
}

// NewClient attaches a compact client for id to the transport.
func NewClient(net transport.Transport, clk clock.Clock, id msg.ProcID, opts Options) (*Client, error) {
	if opts.RetransTimeout <= 0 {
		opts.RetransTimeout = 20 * time.Millisecond
	}
	if opts.TimeBound <= 0 {
		opts.TimeBound = time.Second
	}
	c := &Client{
		id:      id,
		clk:     clk,
		opts:    opts,
		nextID:  1,
		pending: make(map[msg.CallID]*p2pCall),
	}
	ep, err := net.Attach(id, c.handle)
	if err != nil {
		return nil, err
	}
	c.ep = ep
	if opts.Reliable {
		c.loop = proc.Go(c.retransmitLoop)
	}
	return c, nil
}

// Close stops the client. Pending calls complete with StatusAborted.
func (c *Client) Close() {
	if c.loop != nil {
		c.loop.Kill()
		<-c.loop.Done()
	}
	c.mu.Lock()
	calls := make([]*p2pCall, 0, len(c.pending))
	for _, pc := range c.pending {
		calls = append(calls, pc)
	}
	c.pending = make(map[msg.CallID]*p2pCall)
	c.mu.Unlock()
	for _, pc := range calls {
		pc.complete(msg.StatusAborted, nil)
	}
}

// Call synchronously invokes op at the server and returns the result and
// status (OK, TIMEOUT with Bounded, or ABORTED after Close).
func (c *Client) Call(server msg.ProcID, op msg.OpID, args []byte) ([]byte, msg.Status) {
	c.mu.Lock()
	pc := c.free
	if pc != nil {
		c.free = pc.next
		pc.next = nil
	} else {
		pc = &p2pCall{done: make(chan struct{}, 1)}
	}
	pc.op, pc.args, pc.to = op, args, server
	id := c.nextID
	c.nextID++
	c.pending[id] = pc
	call := c.buildCall(id, pc)
	c.mu.Unlock()

	if c.opts.Bounded {
		pc.expired = c.clk.AfterFunc(c.opts.TimeBound, func() {
			c.expire(id)
		})
	}
	c.ep.Push(server, call)

	<-pc.done
	if pc.expired != nil {
		pc.expired.Stop()
		pc.expired = nil
	}
	result, status := pc.result, pc.status
	c.mu.Lock()
	pc.args, pc.result = nil, nil
	pc.next = c.free
	c.free = pc
	c.mu.Unlock()
	return result, status
}

// expire times out call id if it is still pending. Dequeue-then-complete
// under the mutex keeps the single-completer invariant: if the reply beat
// the deadline, the record is gone and this is a no-op.
func (c *Client) expire(id msg.CallID) {
	c.mu.Lock()
	pc, ok := c.pending[id]
	if ok {
		delete(c.pending, id)
	}
	c.mu.Unlock()
	if ok {
		pc.complete(msg.StatusTimeout, nil)
	}
}

// buildCall builds the Call for a pending record. Its AckID is the client's
// low-water mark — the lowest id still pending, or the next to issue — which
// acknowledges every earlier reply at once. The caller holds c.mu.
func (c *Client) buildCall(id msg.CallID, pc *p2pCall) *msg.NetMsg {
	mark := c.nextID
	for pending := range c.pending {
		mark = min(mark, pending)
	}
	return &msg.NetMsg{
		Type:   msg.OpCall,
		ID:     id,
		Client: c.id,
		Op:     pc.op,
		Args:   pc.args,
		Sender: c.id,
		AckID:  mark,
	}
}

func (c *Client) handle(m *msg.NetMsg) {
	if m.Type != msg.OpReply {
		return
	}
	c.mu.Lock()
	pc, ok := c.pending[m.ID]
	if ok {
		delete(c.pending, m.ID)
	}
	c.mu.Unlock()
	if ok {
		pc.complete(msg.StatusOK, m.Args)
	}
}

func (c *Client) retransmitLoop(th *proc.Thread) {
	for {
		timer := make(chan struct{})
		t := c.clk.AfterFunc(c.opts.RetransTimeout, func() { close(timer) })
		select {
		case <-th.Killed():
			t.Stop()
			return
		case <-timer:
		}
		type resend struct {
			to msg.ProcID
			m  *msg.NetMsg
		}
		var out []resend
		c.mu.Lock()
		// Replies dequeue their record, so everything still pending is
		// unanswered and due for retransmission.
		for id, pc := range c.pending {
			out = append(out, resend{to: pc.to, m: c.buildCall(id, pc)})
		}
		c.mu.Unlock()
		for _, rs := range out {
			c.ep.Push(rs.to, rs.m)
		}
	}
}
