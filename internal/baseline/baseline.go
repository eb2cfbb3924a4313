// Package baseline implements a conventional, monolithic group RPC with
// fixed semantics — the historical one-system-per-semantics alternative the
// paper argues against. Its semantics are hard-wired to one point in the
// configuration space (synchronous calls, reliable communication,
// exactly-once execution, k-of-n acceptance, last-reply collation, no
// ordering, orphans ignored), with all mechanisms fused into two tight
// loops instead of composed micro-protocols.
//
// Experiment E8 runs this against the equivalently-configured composite
// protocol to measure the cost of configurability.
package baseline

import (
	"sync"
	"time"

	"mrpc/internal/clock"
	"mrpc/internal/msg"
	"mrpc/internal/proc"
	"mrpc/internal/transport"
)

// Handler executes one operation at a baseline server.
type Handler func(op msg.OpID, args []byte) []byte

// Server is a monolithic RPC server with fused exactly-once duplicate
// suppression (seen-call table, retained replies, release below the
// client's low-water mark).
type Server struct {
	id msg.ProcID
	ep transport.Endpoint
	h  Handler

	mu         sync.Mutex
	oldCalls   map[msg.CallKey]bool
	oldResults map[msg.CallKey][]byte
	floor      map[msg.ProcID]msg.CallID // highest mark seen per client
}

// NewServer attaches a baseline server to the transport.
func NewServer(net transport.Transport, id msg.ProcID, h Handler) (*Server, error) {
	s := &Server{
		id:         id,
		h:          h,
		oldCalls:   make(map[msg.CallKey]bool),
		oldResults: make(map[msg.CallKey][]byte),
		floor:      make(map[msg.ProcID]msg.CallID),
	}
	ep, err := net.Attach(id, s.handle)
	if err != nil {
		return nil, err
	}
	s.ep = ep
	return s, nil
}

// raiseFloor applies the low-water mark a call carries — the cumulative
// acknowledgement of every earlier call — and forgets what lies below it.
// The caller holds s.mu.
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

func (s *Server) handle(m *msg.NetMsg) {
	if m.Type == msg.OpCall {
		key := m.Key()
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
			return
		}
		s.oldCalls[key] = true
		s.mu.Unlock()

		res := s.h(m.Op, m.Args)

		s.mu.Lock()
		s.oldResults[key] = res
		s.mu.Unlock()
		s.reply(m, res)
	}
}

func (s *Server) reply(call *msg.NetMsg, res []byte) {
	s.ep.Push(call.Sender, &msg.NetMsg{
		Type:   msg.OpReply,
		ID:     call.ID,
		Client: call.Client,
		Op:     call.Op,
		Args:   res,
		Server: call.Server,
		Sender: s.id,
	})
}

type pendingCall struct {
	group   msg.Group
	op      msg.OpID
	args    []byte
	need    int
	replied map[msg.ProcID]bool
	acked   map[msg.ProcID]bool
	result  []byte
	done    chan struct{}
	once    sync.Once
}

// Client is a monolithic RPC client with fused retransmission, cumulative
// reply acknowledgement (a low-water mark on every call), k-of-n acceptance
// and last-reply collation.
type Client struct {
	id      msg.ProcID
	ep      transport.Endpoint
	clk     clock.Clock
	retrans time.Duration

	mu      sync.Mutex
	next    msg.CallID
	pending map[msg.CallID]*pendingCall

	loop *proc.Thread
}

// NewClient attaches a baseline client to the transport. retrans is the
// retransmission period.
func NewClient(net transport.Transport, clk clock.Clock, id msg.ProcID, retrans time.Duration) (*Client, error) {
	c := &Client{
		id:      id,
		clk:     clk,
		retrans: retrans,
		next:    1,
		pending: make(map[msg.CallID]*pendingCall),
	}
	ep, err := net.Attach(id, c.handle)
	if err != nil {
		return nil, err
	}
	c.ep = ep
	c.loop = proc.Go(c.retransmitLoop)
	return c, nil
}

// Close stops the client's retransmission loop. Idempotent.
func (c *Client) Close() {
	c.loop.Kill()
	<-c.loop.Done()
}

func (c *Client) handle(m *msg.NetMsg) {
	if m.Type != msg.OpReply {
		return
	}
	c.mu.Lock()
	pc, ok := c.pending[m.ID]
	if !ok {
		c.mu.Unlock()
		return
	}
	pc.acked[m.Sender] = true
	if pc.replied[m.Sender] {
		c.mu.Unlock()
		return
	}
	pc.replied[m.Sender] = true
	pc.result = m.Args
	pc.need--
	complete := pc.need <= 0
	c.mu.Unlock()
	if complete {
		pc.once.Do(func() { close(pc.done) })
	}
}

func (c *Client) retransmitLoop(th *proc.Thread) {
	for {
		timer := make(chan struct{})
		t := c.clk.AfterFunc(c.retrans, func() { close(timer) })
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
		mark := c.lowWater()
		for id, pc := range c.pending {
			for _, p := range pc.group {
				if pc.acked[p] {
					continue
				}
				out = append(out, resend{to: p, m: &msg.NetMsg{
					Type:   msg.OpCall,
					ID:     id,
					Client: c.id,
					Op:     pc.op,
					Args:   pc.args,
					Server: pc.group,
					Sender: c.id,
					AckID:  mark,
				}})
			}
		}
		c.mu.Unlock()
		for _, rs := range out {
			c.ep.Push(rs.to, rs.m)
		}
	}
}

// lowWater returns the lowest call id still pending, or the next to issue:
// every reply below it has been received, so the servers may release them.
// The caller holds c.mu.
func (c *Client) lowWater() msg.CallID {
	mark := c.next
	for id := range c.pending {
		mark = min(mark, id)
	}
	return mark
}

// Call synchronously invokes op on the group, completing once accept
// servers have replied (clamped to the group size); the result is the last
// reply received.
func (c *Client) Call(op msg.OpID, args []byte, group msg.Group, accept int) []byte {
	if accept > len(group) {
		accept = len(group)
	}
	if accept < 1 {
		accept = 1
	}
	pc := &pendingCall{
		group:   group.Clone(),
		op:      op,
		args:    args,
		need:    accept,
		replied: make(map[msg.ProcID]bool, len(group)),
		acked:   make(map[msg.ProcID]bool, len(group)),
		done:    make(chan struct{}),
	}
	c.mu.Lock()
	id := c.next
	c.next++
	c.pending[id] = pc
	mark := c.lowWater()
	c.mu.Unlock()

	c.ep.Multicast(group, &msg.NetMsg{
		Type:   msg.OpCall,
		ID:     id,
		Client: c.id,
		Op:     op,
		Args:   args,
		Server: group,
		Sender: c.id,
		AckID:  mark,
	})

	<-pc.done
	c.mu.Lock()
	res := pc.result
	delete(c.pending, id)
	c.mu.Unlock()
	return res
}

// RegistryHandler adapts a stub registry's Pop to a baseline Handler (the
// thread token is nil: baseline servers have no killable thread model).
func RegistryHandler(pop func(th *proc.Thread, op msg.OpID, args []byte) []byte) Handler {
	return func(op msg.OpID, args []byte) []byte { return pop(nil, op, args) }
}
