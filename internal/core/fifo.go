package core

import (
	"sync"

	"mrpc/internal/event"
	"mrpc/internal/msg"
)

// FIFOOrder guarantees that the calls of each client are served in issue
// order at every server (§4.4.6). Per the paper it deliberately tolerates
// duplicate and concurrent execution (unique execution is a separate
// property), tracking only a per-client next-expected call id within the
// client's current incarnation.
//
// A lane (the per-client sequence) that opens mid-stream learns its start
// from the client rather than from arrival order. Every CALL carries the
// client's low-water mark W (D20), the lowest call id it still holds, and
// with Reliable Communication a call stays held until every member has
// received it: every call below W has reached this member already, and
// every call at or above W that has not will still be sent to it. So the
// lane opens at W (or at the arriving call, if W belongs to another
// incarnation or is absent) and holds the gap until Reliable Communication
// fills it. The paper's rule, where the first call to arrive defines the
// start, loses every call that a later one overtakes: with an acceptance
// limit below the group size the client issues call k+1 as soon as one
// member has answered call k, so a straggler can see k+1 first and then
// discard k as already served. Without Reliable Communication W trails only
// the calls still pending, and a lane can still open above a call in
// transit, as under the paper's rule.
//
// Two cases keep the arriving call as the start. A member rebuilt after a
// crash may have received the mark's call in its past life, and no one
// sends it again. A call held across a reconfiguration is adopted (see
// Adopt): calls below it may have run here under the previous
// configuration, outside any lane. StrictInit instead starts each
// incarnation's sequence at its first call (which the D9 id scheme makes
// recognizable); the configuration layer enables it for asynchronous-call
// services, where pipelining makes an overtaken first call the common case
// and W, without Reliable Communication, passes calls still in transit.
type FIFOOrder struct {
	// StrictInit makes the expected sequence of a newly seen incarnation
	// start at its first call instead of at the first call to arrive.
	StrictInit bool

	b  *Binding
	mu sync.Mutex
	// amnesiac is set on a member rebuilt after a crash: its lanes do not
	// open at the client's mark (see the type comment).
	amnesiac bool
	// inProgress migrates across a swap (a FIFO→FIFO parameter change must
	// not forget where each client's sequence stands).
	inProgress map[msg.ProcID]*fifoEntry
}

var _ MicroProtocol = (*FIFOOrder)(nil)
var _ Stateful = (*FIFOOrder)(nil)
var _ Sequencer = (*FIFOOrder)(nil)

type fifoEntry struct {
	inc  msg.Incarnation
	next msg.CallID
}

// Name implements MicroProtocol.
func (*FIFOOrder) Name() string { return "FIFO Order" }

func (f *FIFOOrder) spec() any {
	return struct{ strict bool }{f.StrictInit}
}

// ExportState implements Stateful.
func (f *FIFOOrder) ExportState() any {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.inProgress
}

// ImportState implements Stateful.
func (f *FIFOOrder) ImportState(state any) {
	f.mu.Lock()
	f.inProgress = state.(map[msg.ProcID]*fifoEntry)
	f.mu.Unlock()
}

// firstCallID is the id a client's incarnation assigns to its first call
// under the D9 scheme (incarnation in the upper 32 bits, sequence 1).
func firstCallID(inc msg.Incarnation) msg.CallID {
	return msg.CallID(int64(inc)<<32 | 1)
}

// start returns where a lane opened by m begins. adopted marks a call
// re-homed by a reconfiguration, which starts its lane where it stands.
func (f *FIFOOrder) start(m *msg.NetMsg, adopted bool) msg.CallID {
	switch {
	case f.StrictInit:
		return firstCallID(m.Inc)
	case adopted || f.amnesiac:
		return m.ID
	case m.AckID != 0 && m.AckID < m.ID && callInc(m.AckID) == callInc(m.ID):
		return m.AckID
	}
	return m.ID
}

// admit applies the FIFO delivery rule to an arriving (or adopted) call.
// It returns release=true when the call is next in its client's sequence
// (the caller forwards it up) and stale=true when the call belongs to a
// dead incarnation or an already-served position (the caller discards it).
func (f *FIFOOrder) admit(m *msg.NetMsg, adopted bool) (release, stale bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ip, seen := f.inProgress[m.Client]
	if !seen {
		ip = &fifoEntry{inc: m.Inc, next: f.start(m, adopted)}
		f.inProgress[m.Client] = ip
	} else {
		if ip.inc > m.Inc || (ip.inc == m.Inc && m.ID < ip.next) {
			return false, true
		}
		if ip.inc < m.Inc {
			ip.inc = m.Inc
			ip.next = f.start(m, adopted)
		}
	}
	return m.ID == ip.next, false
}

// Adopt implements Sequencer: a call admitted to sRPC before this instance
// attached is offered to the FIFO rule as if it had just arrived. Stale
// calls are dropped from the table directly (there is no occurrence to
// cancel). The reconfiguration engine adopts calls in (client, id) order,
// so a freshly initialized sequence adopts each client's earliest held call
// as its starting point.
func (f *FIFOOrder) Adopt(key msg.CallKey, m *msg.NetMsg) {
	release, stale := f.admit(m, true)
	switch {
	case stale:
		f.fw().DropServerCall(key)
	case release:
		f.fw().ForwardUp(key, HoldFIFO)
	}
}

func (f *FIFOOrder) fw() *Framework { return f.b.fw }

// Attach implements MicroProtocol.
func (f *FIFOOrder) Attach(fw *Framework) error {
	fw.SetHold(HoldFIFO)
	b := NewBinding(fw)
	f.b = b
	f.amnesiac = fw.Inc() > 1
	f.inProgress = make(map[msg.ProcID]*fifoEntry)

	b.On(event.MsgFromNetwork, "FIFOOrder.msgFromNet", PrioOrder,
		func(o *event.Occurrence) {
			m := o.Arg.(*NetEvent).Msg
			if m.Type != msg.OpCall {
				return
			}
			release, stale := f.admit(m, false)
			switch {
			case stale:
				// Stale incarnation or already-served call: discard
				// (Main's cancellation cleanup drops the record).
				o.Cancel()
			case release:
				fw.ForwardUp(m.Key(), HoldFIFO)
			}
		})

	b.On(event.ReplyFromServer, "FIFOOrder.handleReply", PrioReplyBookkeep,
		func(o *event.Occurrence) {
			key := *o.Arg.(*msg.CallKey)
			var inc msg.Incarnation
			if !fw.WithServer(key, func(rec *ServerRecord) { inc = rec.Inc }) {
				return
			}
			f.mu.Lock()
			advanced := false
			if ip := f.inProgress[key.Client]; ip != nil && ip.inc == inc && ip.next == key.ID {
				ip.next = key.ID + 1
				advanced = true
			}
			f.mu.Unlock()
			if advanced {
				// If the successor is already held, release it (ForwardUp
				// no-ops when it is not here yet; its own arrival handler
				// will find next already advanced).
				fw.ForwardUp(msg.CallKey{Client: key.Client, ID: key.ID + 1}, HoldFIFO)
			}
		})
	return b.Err()
}

// Detach implements MicroProtocol.
func (f *FIFOOrder) Detach(fw *Framework) {
	f.b.Detach()
	fw.ClearHold(HoldFIFO)
}
