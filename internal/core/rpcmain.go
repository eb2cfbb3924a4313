package core

import (
	"mrpc/internal/event"
	"mrpc/internal/msg"
)

// RPCMain handles the main control flow of an RPC on both the client and
// server sides (§4.4.1): it stores call requests in the tables, sends
// requests and replies over the network, and drives procedure execution via
// ForwardUp. It does not block user threads — that is the job of the
// call-semantics micro-protocols.
type RPCMain struct {
	b *Binding
}

var _ MicroProtocol = (*RPCMain)(nil)

// Name implements MicroProtocol.
func (*RPCMain) Name() string { return "RPC Main" }

func (*RPCMain) spec() any { return struct{}{} }

// Attach implements MicroProtocol.
func (r *RPCMain) Attach(fw *Framework) error {
	fw.SetHold(HoldMain)
	b := NewBinding(fw)
	r.b = b

	// Server side: a Call arriving from the network is recorded in sRPC and
	// offered to forward_up under the MAIN property. The cancellation
	// compensation is one long-lived closure reading its key from the
	// occurrence: capturing the key per event would allocate on every call.
	dropHeldCall := func(o *event.Occurrence) {
		fw.DropServerCall(o.Arg.(*NetEvent).Msg.Key())
	}
	b.On(event.MsgFromNetwork, "RPCMain.msgFromNet", PrioMain,
		func(o *event.Occurrence) {
			ev := o.Arg.(*NetEvent)
			m := ev.Msg
			if m.Type != msg.OpCall {
				return
			}
			key := m.Key()
			rec := getServerRec()
			*rec = ServerRecord{
				Key:    key,
				Op:     m.Op,
				Args:   m.Args,
				Server: m.Server,
				Client: m.Client,
				Inc:    m.Inc,
				Thread: ev.Thread,
				Msg:    m,
			}
			if !fw.PutServerRec(rec) {
				// Already held (e.g. a retransmission racing the original
				// while an ordering protocol defers it). Without Unique
				// Execution nothing else filters this; drop the copy to
				// keep the table consistent.
				releaseServerRec(rec)
				o.Cancel()
				return
			}
			o.OnCancel(dropHeldCall)
			fw.ForwardUp(key, HoldMain)
		})

	// Client side: a Call from the user protocol is recorded in pRPC,
	// announced via NEW_RPC_CALL, and multicast to the server group.
	b.On(event.CallFromUser, "RPCMain.msgFromUser", PrioCallMain,
		func(o *event.Occurrence) {
			um := o.Arg.(*msg.UserMsg)
			if um.Type != msg.UserCall {
				return
			}
			// The vector clock is stamped before the record is published so
			// the record is complete the moment other handlers can see it.
			var vc msg.VClock
			if fw.CausalEnabled() {
				vc = fw.StampOutgoingCall()
			}
			rec := fw.NewClientRec(um.Op, um.Args, um.Server, vc)
			um.ID = rec.ID
			um.Status = msg.StatusWaiting

			// The paper's one deliberate event cascade: announcing the new
			// call runs the NEW_RPC_CALL chain (Reliable Communication,
			// Bounded Termination, ...) to completion before the request is
			// multicast. NEW_RPC_CALL handlers never trigger CALL_FROM_USER,
			// so the recursion is one level deep by construction. The id
			// rides in a pooled box: boxing the int64 into the event
			// argument directly would allocate on every call.
			ib := callIDPool.Get().(*msg.CallID)
			*ib = rec.ID
			//lint:ignore handler-discipline NEW_RPC_CALL cascade is the paper's design; no cycle back into CALL_FROM_USER
			fw.Bus().Trigger(event.NewRPCCall, ib)
			callIDPool.Put(ib)

			// AckID carries the low-water mark: the servers' cumulative
			// acknowledgement of every earlier call (D20).
			call := &msg.NetMsg{
				Type:   msg.OpCall,
				ID:     rec.ID,
				Client: fw.Self(),
				Op:     rec.Op,
				Args:   um.Args,
				Server: rec.Server,
				Sender: fw.Self(),
				Inc:    fw.Inc(),
				AckID:  fw.LowWater(),
				VC:     rec.VC,
			}
			fw.Net().Multicast(rec.Server, call)
		})

	b.On(event.Recovery, "RPCMain.handleRecovery", event.DefaultPriority,
		func(o *event.Occurrence) {
			fw.SetInc(o.Arg.(msg.Incarnation))
		})

	return b.Err()
}

// Detach implements MicroProtocol.
func (r *RPCMain) Detach(fw *Framework) {
	r.b.Detach()
	fw.ClearHold(HoldMain)
}

// SynchronousCall implements synchronous RPC semantics (§4.4.2): the
// calling thread blocks on the call's semaphore until the call completes
// (accepted, timed out, or aborted), then collects the result. The handler
// only raises the UserMsg's Wait flag; Framework.CollectUserMsg does the
// blocking after dispatch — outside the reconfiguration barrier, so a
// parked caller never delays a swap.
type SynchronousCall struct {
	b *Binding
}

var _ MicroProtocol = (*SynchronousCall)(nil)

// Name implements MicroProtocol.
func (*SynchronousCall) Name() string { return "Synchronous Call" }

func (*SynchronousCall) spec() any { return struct{}{} }

// Attach implements MicroProtocol.
func (sc *SynchronousCall) Attach(fw *Framework) error {
	b := NewBinding(fw)
	sc.b = b
	// Default priority: runs after RPC Main has created the record and
	// sent the request.
	b.On(event.CallFromUser, "SynchronousCall.msgFromUser", event.DefaultPriority,
		func(o *event.Occurrence) {
			um := o.Arg.(*msg.UserMsg)
			if um.Type != msg.UserCall {
				return
			}
			um.Wait = fw.HasClient(um.ID)
		})
	// The synchronous composite normally has no uncollected results, but a
	// reconfiguration that switches the call mode can leave some behind
	// (issued asynchronously, completed, not yet requested when the swap
	// landed). Serving UserRequest here keeps those collectable (D14).
	b.On(event.CallFromUser, "SynchronousCall.request", event.DefaultPriority,
		collectRequest(fw))
	return b.Err()
}

// Detach implements MicroProtocol.
func (sc *SynchronousCall) Detach(*Framework) { sc.b.Detach() }

// AsynchronousCall implements asynchronous RPC semantics (§4.4.2): the
// caller is not blocked when the call is issued; it later retrieves the
// result with a Request message, blocking only then if the result is not
// yet available (again via the Wait flag, outside the barrier).
type AsynchronousCall struct {
	b *Binding
}

var _ MicroProtocol = (*AsynchronousCall)(nil)

// Name implements MicroProtocol.
func (*AsynchronousCall) Name() string { return "Asynchronous Call" }

func (*AsynchronousCall) spec() any { return struct{}{} }

// Attach implements MicroProtocol.
func (ac *AsynchronousCall) Attach(fw *Framework) error {
	b := NewBinding(fw)
	ac.b = b
	b.On(event.CallFromUser, "AsynchronousCall.msgFromUser", event.DefaultPriority,
		collectRequest(fw))
	return b.Err()
}

// collectRequest builds the UserRequest handler shared by both
// call-semantics micro-protocols: raise the Wait flag so the framework
// blocks until the outstanding call completes and surrenders its record to
// the requester. The asynchronous protocol registers it as its Request
// primitive; the synchronous one registers it so results left uncollected
// by a call-mode reconfiguration stay reachable.
func collectRequest(fw *Framework) func(*event.Occurrence) {
	return func(o *event.Occurrence) {
		um := o.Arg.(*msg.UserMsg)
		if um.Type != msg.UserRequest {
			return
		}
		if fw.HasClient(um.ID) {
			um.Wait = true
		} else {
			// Unknown or already-collected call.
			um.Status = msg.StatusAborted
		}
	}
}

// Detach implements MicroProtocol.
func (ac *AsynchronousCall) Detach(*Framework) { ac.b.Detach() }
