package core

import (
	"sync"

	"mrpc/internal/event"
	"mrpc/internal/msg"
	"mrpc/internal/trace"
)

// UniqueExecution guarantees that a call is not executed more than once at
// each server (§4.4.5): the server remembers calls it has seen (OldCalls)
// and retains its response (OldResults) until the client acknowledges it; a
// duplicate request is answered from the stored response or, if execution
// is in progress, simply discarded. Combined with Reliable Communication
// this lifts "at least once" to "exactly once" semantics.
//
// The acknowledgement is cumulative (deviation D20): instead of one ACK per
// reply, every CALL carries the client's low-water mark, below which the
// client has settled all its calls. OldCalls and OldResults are one sliding
// window per (client, incarnation) whose floor is the highest mark seen, so
// a server holds only the calls at or above its client's floor — the calls
// in flight plus the mark's lag — rather than every call of the
// incarnation. Below the floor only one bit per call is kept, for a grace
// span of calls (see graceSpan): a copy of a call admitted here is a stale
// duplicate and is dropped before Reliable Communication sees it, and so is
// any copy older than the grace span; a late first copy within the span is
// admitted as new. Total Order's executed-call guard (AlreadyExecuted)
// reports the dropped ones, so they are never given a sequence number.
type UniqueExecution struct {
	b  *Binding
	mu sync.Mutex
	// windows migrates across a swap: the no-double-execution guarantee
	// must hold for calls that executed before the swap too.
	windows clientWindows[uniqueSlot]
}

var _ MicroProtocol = (*UniqueExecution)(nil)
var _ Stateful = (*UniqueExecution)(nil)

// uniqueSlot is one call's entry in OldCalls/OldResults.
type uniqueSlot struct {
	state uint8  // uniqueUnseen, uniqueSeen or uniqueDone
	res   []byte // the retained response (uniqueDone)
}

func (s uniqueSlot) admitted() bool { return s.state != uniqueUnseen }

const (
	uniqueUnseen = iota
	uniqueSeen   // admitted; executing or held by an ordering protocol
	uniqueDone   // executed; res is the response to resend
)

// Name implements MicroProtocol.
func (*UniqueExecution) Name() string { return "Unique Execution" }

func (*UniqueExecution) spec() any { return struct{}{} }

// ExportState implements Stateful.
func (u *UniqueExecution) ExportState() any {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.windows
}

// ImportState implements Stateful.
func (u *UniqueExecution) ImportState(state any) {
	u.mu.Lock()
	u.windows = state.(clientWindows[uniqueSlot])
	u.mu.Unlock()
}

// executed reports whether key has been admitted here, or is settled below
// its client's floor.
func (u *UniqueExecution) executed(key msg.CallKey) bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	w := u.windows[windowKey{client: key.Client, inc: callInc(key.ID)}]
	if w == nil {
		return false
	}
	seq := callSeq(key.ID)
	if seq < w.base {
		return w.settled(seq)
	}
	s := w.peek(seq)
	return s != nil && s.admitted()
}

// Attach implements MicroProtocol.
func (u *UniqueExecution) Attach(fw *Framework) error {
	b := NewBinding(fw)
	u.b = b
	u.windows = make(clientWindows[uniqueSlot])

	// Publish the executed-call predicate: a freshly attached ordering
	// protocol must not sequence duplicates of calls that executed before
	// it attached (see Framework.AlreadyExecuted).
	fw.SetExecutedQuery(u.executed)

	// Retain the response until the client's mark passes it (priority 1:
	// before Atomic Execution's checkpoint on the same event).
	b.On(event.ReplyFromServer, "UniqueExec.handleReply", PrioReplyBookkeep,
		func(o *event.Occurrence) {
			key := *o.Arg.(*msg.CallKey)
			var (
				args []byte
				ok   bool
			)
			ok = fw.WithServer(key, func(rec *ServerRecord) { args = rec.Args })
			if ok {
				u.mu.Lock()
				// A call the floor passed while it executed is settled at
				// the client: nothing will ask for its response again.
				if s := u.windows.of(key.Client, key.ID).peek(callSeq(key.ID)); s != nil {
					*s = uniqueSlot{state: uniqueDone, res: args}
				}
				u.mu.Unlock()
			}
		})

	// One long-lived cancellation compensation (it reads its key from the
	// occurrence) instead of a per-event capturing closure; see D6.
	forgetOnCancel := func(o *event.Occurrence) {
		key := o.Arg.(*NetEvent).Msg.Key()
		u.mu.Lock()
		w, seq := u.windows.of(key.Client, key.ID), callSeq(key.ID)
		if s := w.peek(seq); s != nil {
			*s = uniqueSlot{}
		} else {
			w.forgetLate(seq)
		}
		u.mu.Unlock()
	}

	dropDuplicate := func(o *event.Occurrence, m *msg.NetMsg) {
		if fw.Tracing() {
			fw.Emit(trace.Event{Kind: trace.KDupDropped, Client: m.Client, ID: m.ID})
		}
		o.Cancel()
	}

	// The cumulative ACK: raise the client's floor to the mark the call
	// carries, forgetting everything below it, and drop the call itself if
	// it is already below. This runs just after Total Order's assignment,
	// not before it: a follower that lost an ORDER nudges the leader with
	// the client's original call, which may be settled at the client by
	// now, and the leader must still re-announce the number it assigned. A
	// settled call the leader never numbered stays unnumbered, since
	// AlreadyExecuted reports it.
	b.On(event.MsgFromNetwork, "UniqueExec.floor", PrioFloor,
		func(o *event.Occurrence) {
			m := o.Arg.(*NetEvent).Msg
			if m.Type != msg.OpCall {
				return
			}
			u.mu.Lock()
			u.windows.observe(m.Client, m.AckID)
			settled := u.windows.of(m.Client, m.ID).settled(callSeq(m.ID))
			u.mu.Unlock()
			if settled {
				dropDuplicate(o, m)
			}
		})

	b.On(event.MsgFromNetwork, "UniqueExec.msgFromNet", PrioUnique,
		func(o *event.Occurrence) {
			m := o.Arg.(*NetEvent).Msg
			if m.Type != msg.OpCall {
				return
			}
			key := m.Key()
			u.mu.Lock()
			s := u.windows.slot(key.Client, key.ID)
			switch {
			case s == nil:
				w, seq := u.windows.of(key.Client, key.ID), callSeq(key.ID)
				if w.settled(seq) {
					// The floor passed an admitted copy since the floor
					// handler ran (a concurrent delivery carried a newer
					// mark): a stale duplicate.
					u.mu.Unlock()
					dropDuplicate(o, m)
					return
				}
				// A late first copy below the floor: admitted, though its
				// response is not retained (the client has settled it).
				w.admitLate(seq)
				u.mu.Unlock()
				o.OnCancel(forgetOnCancel)
			case s.state == uniqueDone:
				res := s.res
				u.mu.Unlock()
				// Already executed and still unacknowledged: resend the
				// retained response.
				dropDuplicate(o, m)
				fw.Net().Push(m.Sender, &msg.NetMsg{
					Type:   msg.OpReply,
					ID:     m.ID,
					Client: m.Client,
					Op:     m.Op,
					Args:   res,
					Server: m.Server,
					Sender: fw.Self(),
					Inc:    fw.Inc(),
				})
			case s.state == uniqueSeen:
				u.mu.Unlock()
				// Execution in progress: discard.
				dropDuplicate(o, m)
			default:
				s.state = uniqueSeen
				u.mu.Unlock()
				// If a later handler cancels this delivery (the call never
				// executes now), forget it so a retransmission can succeed
				// (deviation D6).
				o.OnCancel(forgetOnCancel)
			}
		})
	return b.Err()
}

// Detach implements MicroProtocol.
func (u *UniqueExecution) Detach(fw *Framework) {
	u.b.Detach()
	fw.SetExecutedQuery(nil)
}
