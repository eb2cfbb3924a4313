package core

import (
	"mrpc/internal/event"
	"mrpc/internal/member"
	"mrpc/internal/msg"
	"mrpc/internal/sem"
	"mrpc/internal/trace"
)

// AcceptAll is an acceptance limit larger than any group, i.e. "all
// functioning servers must respond" (the paper clamps the limit to the
// group size).
const AcceptAll = 1 << 30

// Acceptance implements acceptance semantics (§4.4.5): a group call
// completes successfully once Limit servers have replied. Members known to
// be failed (per the membership service) are not waited for; with no
// membership service the set of members is effectively constant and the
// call completes only via enough replies or bounded termination — exactly
// the paper's discussion.
//
// Deviation D2: the micro-protocol registers two network handlers, a
// dedupe stage before Collation and a completion stage after it. A reply
// counts toward the threshold only in the completion stage, after its fold,
// so the caller is never woken before every counted reply has been folded
// in — even when replies run their stages concurrently.
//
// Per-call progress lives in the client records (Pending/NRes), so nothing
// migrates across a reconfiguration — and a swap that changes Limit only
// affects calls admitted after it (in-flight calls keep the threshold
// stamped at issue time).
type Acceptance struct {
	Limit int

	b *Binding
}

var _ MicroProtocol = (*Acceptance)(nil)

// Name implements MicroProtocol.
func (*Acceptance) Name() string { return "Acceptance" }

func (a *Acceptance) limit() int {
	if a.Limit <= 0 {
		return 1
	}
	return a.Limit
}

func (a *Acceptance) spec() any {
	return struct{ limit int }{a.limit()}
}

// Attach implements MicroProtocol.
func (a *Acceptance) Attach(fw *Framework) error {
	limit := a.limit()
	b := NewBinding(fw)
	a.b = b

	b.On(event.NewRPCCall, "Acceptance.handleNewCall", event.DefaultPriority,
		func(o *event.Occurrence) {
			id := *o.Arg.(*msg.CallID)
			complete := false
			var s *sem.Sem
			fw.WithClient(id, func(rec *ClientRecord) {
				alive := 0
				for i, p := range rec.Server {
					if fw.Membership().Down(p) {
						rec.Pending[i].Done = true
					} else {
						rec.Pending[i].Done = false
						alive++
					}
				}
				rec.NRes = limit
				if alive < rec.NRes {
					rec.NRes = alive
				}
				complete = rec.NRes <= 0 && rec.Status == msg.StatusWaiting
				if complete {
					// Degenerate group (every member failed): accept vacuously
					// rather than hang a call no reply can ever complete.
					rec.Status = msg.StatusOK
					s = rec.Sem
				}
			})
			if complete {
				if fw.Tracing() {
					fw.Emit(trace.Event{Kind: trace.KCallDone, Client: fw.Self(), ID: id,
						Status: msg.StatusOK})
				}
				s.V()
			}
		})

	// Stage 1 (before Collation): filter replies that must not be folded —
	// unknown calls, duplicate replies from the same server, and any reply
	// arriving after the call already completed. Marking the member done
	// stops a double fold; the reply is not counted until stage 2.
	b.On(event.MsgFromNetwork, "Acceptance.dedupe", PrioAcceptDedupe,
		func(o *event.Occurrence) {
			m := o.Arg.(*NetEvent).Msg
			if m.Type != msg.OpReply {
				return
			}
			fold := false
			fw.WithClient(m.ID, func(rec *ClientRecord) {
				if rec.Status != msg.StatusWaiting {
					return
				}
				e := rec.PendingFor(m.Sender)
				if e == nil || e.Done {
					return
				}
				e.Done = true
				fold = true
			})
			if !fold {
				o.Cancel()
			}
		})

	// Stage 2 (after Collation): count the folded reply and, once the
	// acceptance threshold is reached, complete the call and wake the
	// waiting client thread. Only a reply counted while the call still
	// waits is reported accepted: that is what the caller gets.
	b.On(event.MsgFromNetwork, "Acceptance.complete", PrioAcceptComplete,
		func(o *event.Occurrence) {
			m := o.Arg.(*NetEvent).Msg
			if m.Type != msg.OpReply {
				return
			}
			accepted, complete := false, false
			var s *sem.Sem
			fw.WithClient(m.ID, func(rec *ClientRecord) {
				if rec.Status != msg.StatusWaiting {
					return
				}
				accepted = true
				rec.NRes--
				complete = rec.NRes <= 0
				if complete {
					rec.Status = msg.StatusOK
					s = rec.Sem
				}
			})
			if accepted && fw.Tracing() {
				fw.Emit(trace.Event{Kind: trace.KReplyAccepted, Client: m.Client,
					ID: m.ID, From: m.Sender})
			}
			if complete {
				if fw.Tracing() {
					fw.Emit(trace.Event{Kind: trace.KCallDone, Client: m.Client, ID: m.ID,
						Status: msg.StatusOK})
				}
				s.V()
			}
		})

	// A server failure may satisfy the acceptance condition for pending
	// calls (all remaining live members have already replied).
	b.On(event.MembershipChange, "Acceptance.serverFailure", event.DefaultPriority,
		func(o *event.Occurrence) {
			c := o.Arg.(member.Change)
			if c.Kind != member.Failure {
				return
			}
			// The failure must count against every pending call exactly once,
			// including calls racing in concurrently — a cross-record sweep,
			// so it runs as a Tx rather than shard by shard.
			var wake []*ClientRecord
			fw.ClientTx(func(tx ClientTx) {
				tx.Each(func(rec *ClientRecord) {
					e := rec.PendingFor(c.Who)
					if e == nil || e.Done {
						return
					}
					e.Done = true
					rec.NRes--
					if rec.NRes <= 0 && rec.Status == msg.StatusWaiting {
						rec.Status = msg.StatusOK
						wake = append(wake, rec)
					}
				})
			})
			for _, rec := range wake {
				if fw.Tracing() {
					fw.Emit(trace.Event{Kind: trace.KCallDone, Client: fw.Self(), ID: rec.ID,
						Status: msg.StatusOK})
				}
				rec.Sem.V()
			}
		})
	return b.Err()
}

// Detach implements MicroProtocol.
func (a *Acceptance) Detach(*Framework) { a.b.Detach() }
