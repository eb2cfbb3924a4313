package core

import (
	"sync"
	"time"

	"mrpc/internal/event"
	"mrpc/internal/msg"
)

// ReliableCommunication implements reliable communication (§4.4.3) by
// retransmitting each call to every group member that has neither replied
// nor acknowledged it. Combined with RPC Main it yields unbounded
// termination: the client keeps trying until it hears back.
//
// Deviation D11: the paper drives retransmission off the pRPC record,
// which the call-semantics micro-protocol deletes as soon as the call is
// accepted — so with acceptance < ALL, a member that lost the call would
// never receive it, breaking the "every server receives the same set of
// messages" property the ordering protocols rely on (Figure 2). Here the
// micro-protocol owns its transmission state independently of the call's
// lifetime: servers acknowledge receipt of every Call (the paper's "some
// other form of acknowledgment"), and the client retransmits until every
// member has acknowledged — lingering past the call's local completion,
// bounded by LingerRounds for calls the client has abandoned. An entry holds
// the client's low-water mark (D20) until it retires, so the servers keep
// their record of a call for as long as the client may still send it.
type ReliableCommunication struct {
	// RetransTimeout is the retransmission period (default 20ms).
	RetransTimeout time.Duration
	// LingerRounds bounds how many retransmission rounds an entry
	// survives after its call record is gone (completed or timed out);
	// members still unacked then are presumed crashed (default 128).
	LingerRounds int

	b  *Binding
	mu sync.Mutex
	// live/seen migrate across a reconfiguration swap (relState): lingering
	// retransmission continues under the new instance, and the server-side
	// receipt record keeps duplicate acks flowing.
	live map[msg.CallID]*relEntry
	// seen is the server side's record of calls already received, one
	// window per (client, incarnation) floored at the client's low-water
	// mark (D20): a call below the floor is settled at its client, which
	// no longer needs its receipt acknowledged.
	seen clientWindows[receivedSlot]
}

// receivedSlot records that a call was received at this server.
type receivedSlot bool

func (r receivedSlot) admitted() bool { return bool(r) }

var _ MicroProtocol = (*ReliableCommunication)(nil)
var _ Stateful = (*ReliableCommunication)(nil)

// relEntry is one call's transmission state. Two acknowledgement levels
// matter: received (the member has the call — it acknowledged receipt or
// replied) and replied (the member's response arrived here). While the
// call is pending, retransmission continues to members that have not
// REPLIED, because a retransmitted call is also how a lost reply is
// recovered (Unique Execution resends the retained result; without it the
// call re-executes, which is what at-least-once means). Once the caller
// has moved on, the lingering phase only needs every member to have
// RECEIVED the call (the ordering protocols' same-set property).
type relEntry struct {
	id    msg.CallID
	op    msg.OpID
	args  []byte
	group msg.Group
	vc    msg.VClock
	// acks holds relReceived/relReplied bits per member, in lockstep with
	// group (acks[i] belongs to group[i]) — a slice instead of a map so a
	// pooled entry's backing array is reused across calls.
	acks   []uint8
	linger int
}

// relEntryPool recycles transmission-state entries. group is dropped (not
// reused) on release: it aliases the call record's Server slice, which may
// still back frozen wire messages.
var relEntryPool = newPool(func() any { return new(relEntry) })

func getRelEntry() *relEntry { return relEntryPool.Get().(*relEntry) }

func releaseRelEntry(e *relEntry) {
	*e = relEntry{acks: e.acks[:0]}
	relEntryPool.Put(e)
}

const (
	relReceived = 1 << iota // the member has the call
	relReplied              // the member's response arrived here
)

// all reports whether every member's acknowledgement includes need.
func (e *relEntry) all(need uint8) bool {
	for _, a := range e.acks {
		if a&need == 0 {
			return false
		}
	}
	return true
}

// relState is ReliableCommunication's exported migration state.
type relState struct {
	live map[msg.CallID]*relEntry
	seen clientWindows[receivedSlot]
}

// Name implements MicroProtocol.
func (*ReliableCommunication) Name() string { return "Reliable Communication" }

func (r *ReliableCommunication) params() (time.Duration, int) {
	return OrDefault(r.RetransTimeout, DefaultRetransTimeout), OrDefault(r.LingerRounds, 128)
}

func (r *ReliableCommunication) spec() any {
	t, n := r.params()
	return struct {
		t time.Duration
		n int
	}{t, n}
}

// ExportState implements Stateful.
func (r *ReliableCommunication) ExportState() any {
	r.mu.Lock()
	defer r.mu.Unlock()
	return relState{live: r.live, seen: r.seen}
}

// ImportState implements Stateful.
func (r *ReliableCommunication) ImportState(state any) {
	s := state.(relState)
	r.mu.Lock()
	r.live = s.live
	r.seen = s.seen
	r.mu.Unlock()
}

// Outstanding returns the number of calls still being (re)transmitted,
// including lingering entries. The reconfiguration engine waits for zero
// before a drain-barrier swap, so every member has received every pre-swap
// call and no pre-swap duplicate can surface afterwards.
func (r *ReliableCommunication) Outstanding() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.live)
}

// Attach implements MicroProtocol.
func (r *ReliableCommunication) Attach(fw *Framework) error {
	retrans, lingerRounds := r.params()
	b := NewBinding(fw)
	r.b = b
	r.live = make(map[msg.CallID]*relEntry)
	r.seen = make(clientWindows[receivedSlot])

	// retire ends an entry's transmission and its hold on the client's
	// low-water mark. The caller holds r.mu.
	retire := func(e *relEntry) {
		delete(r.live, e.id)
		fw.ReleaseLowWater(e.id)
		releaseRelEntry(e)
	}

	// mark records an acknowledgement and retires the entry as soon as it
	// is settled, so the low-water mark follows completions rather than
	// the next tick: every member replied, or — once the caller has moved
	// on — every member received the call.
	mark := func(id msg.CallID, from msg.ProcID, reply bool) {
		r.mu.Lock()
		if e, ok := r.live[id]; ok {
			bits := uint8(relReceived)
			if reply {
				bits |= relReplied
			}
			for i, p := range e.group {
				if p == from {
					e.acks[i] |= bits
					break
				}
			}
			if e.all(relReplied) || (e.all(relReceived) && !fw.HasClient(id)) {
				retire(e)
			}
		}
		r.mu.Unlock()
	}

	b.On(event.NewRPCCall, "ReliableComm.handleNewCall", event.DefaultPriority,
		func(o *event.Occurrence) {
			id := *o.Arg.(*msg.CallID)
			var e *relEntry
			fw.WithClient(id, func(rec *ClientRecord) {
				e = getRelEntry()
				acks := e.acks[:0]
				for range rec.Server {
					acks = append(acks, 0)
				}
				*e = relEntry{
					id:   rec.ID,
					op:   rec.Op,
					args: rec.CallArgs, // original input args (deviation D7)
					// The record's Server slice is immutable after insert and
					// its backing is dropped (never scrubbed) when the record
					// is repooled, so sharing it here is safe — no clone.
					group: rec.Server,
					vc:    rec.VC, // retransmissions carry the original timestamp
					acks:  acks,
				}
				for i := range rec.Pending {
					rec.Pending[i].Acked = false
				}
			})
			if e == nil {
				return
			}
			fw.HoldLowWater(id)
			r.mu.Lock()
			r.live[id] = e
			r.mu.Unlock()
		})

	b.On(event.MsgFromNetwork, "ReliableComm.msgFromNet", PrioReliable,
		func(o *event.Occurrence) {
			m := o.Arg.(*NetEvent).Msg
			switch m.Type {
			case msg.OpCall:
				// Server side: acknowledge receipt of a REdelivered call
				// (a duplicate means the client is still retransmitting to
				// us) so the client can settle this member even while
				// execution is deferred by an ordering protocol. The first
				// delivery is not acknowledged: on the fast path the reply
				// itself settles the member, keeping the extra message off
				// the common case.
				r.mu.Lock()
				r.seen.observe(m.Client, m.AckID)
				dup := false
				if s := r.seen.slot(m.Client, m.ID); s != nil {
					dup = bool(*s)
					*s = true
				}
				r.mu.Unlock()
				if dup {
					fw.Net().Push(m.Sender, &msg.NetMsg{
						Type:   msg.OpCallAck,
						Client: m.Client,
						Server: m.Server,
						Sender: fw.Self(),
						Inc:    fw.Inc(),
						AckID:  m.ID,
					})
				}
			case msg.OpReply:
				mark(m.ID, m.Sender, true)
				fw.WithClient(m.ID, func(rec *ClientRecord) {
					if e := rec.PendingFor(m.Sender); e != nil {
						e.Acked = true
					}
				})
			case msg.OpCallAck:
				// A member acknowledged receipt of our Call.
				mark(m.AckID, m.Sender, false)
				fw.WithClient(m.AckID, func(rec *ClientRecord) {
					if e := rec.PendingFor(m.Sender); e != nil {
						e.Acked = true
					}
				})
			case msg.OpRelayAck:
				// A dissemination subtree acknowledged receipt in one merged
				// message (D17): Args carries the covered members. Only the
				// call's origin dispatches this — interior tree nodes consume
				// and aggregate relay acks before dispatch.
				covered := msg.DecodeProcIDs(m.Args)
				for _, p := range covered {
					mark(m.AckID, p, false)
				}
				fw.WithClient(m.AckID, func(rec *ClientRecord) {
					for _, p := range covered {
						if e := rec.PendingFor(p); e != nil {
							e.Acked = true
						}
					}
				})
			}
		})

	// Periodic retransmission: a TIMEOUT handler that re-registers itself,
	// the paper's idiom for repetition. Re-arming through the binding means
	// the chain dies when the protocol detaches.
	var handleTimeout event.Handler
	handleTimeout = func(*event.Occurrence) {
		type resend struct {
			to msg.ProcID
			m  *msg.NetMsg
		}
		var out []resend
		lowWater := fw.LowWater()
		r.mu.Lock()
		for id, e := range r.live {
			pending := fw.HasClient(id)
			// While pending, a member is settled only once it replied;
			// afterwards, receipt suffices (see relEntry).
			need := uint8(relReplied)
			if !pending {
				need = relReceived
				// The caller has moved on (accepted or timed out); keep
				// redelivering for a bounded while so slow members still
				// receive the call, then presume the rest crashed.
				e.linger++
				if e.linger > lingerRounds {
					retire(e)
					continue
				}
			}
			if e.all(need) {
				retire(e)
				continue
			}
			for i, p := range e.group {
				if e.acks[i]&need != 0 {
					continue
				}
				out = append(out, resend{to: p, m: &msg.NetMsg{
					Type:   msg.OpCall,
					ID:     e.id,
					Client: fw.Self(),
					Op:     e.op,
					Args:   e.args,
					Server: e.group,
					Sender: fw.Self(),
					Inc:    fw.Inc(),
					AckID:  lowWater,
					VC:     e.vc,
				}})
			}
		}
		r.mu.Unlock()
		for _, rs := range out {
			fw.Net().Push(rs.to, rs.m)
		}
		b.After("ReliableComm.handleTimeout", retrans, handleTimeout)
	}
	b.After("ReliableComm.handleTimeout", retrans, handleTimeout)
	return b.Err()
}

// Detach implements MicroProtocol. Live entries keep their holds on the
// low-water mark: ExportState hands them, holds included, to the successor,
// and a swap that drops Reliable Communication altogether is drain-class,
// so it runs with none live.
func (r *ReliableCommunication) Detach(*Framework) { r.b.Detach() }
