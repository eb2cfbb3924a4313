package core

import (
	"sync"
	"time"

	"mrpc/internal/event"
	"mrpc/internal/msg"
	"mrpc/internal/sem"
	"mrpc/internal/trace"
)

// BoundedTermination guarantees that every call terminates within a
// specified time bound (§4.4.3): if the call has not been accepted by the
// deadline it returns to the client with status TIMEOUT.
type BoundedTermination struct {
	// TimeBound is the per-call deadline (default 1s).
	TimeBound time.Duration

	b  *Binding
	mu sync.Mutex
	// The paper keeps an unbounded FIFO queue of call ids and registers
	// one TIMEOUT per call; the queue head always corresponds to the
	// oldest armed timeout, so one dequeue per firing is exactly the
	// paper's pairing.
	queue []msg.CallID
}

var _ MicroProtocol = (*BoundedTermination)(nil)
var _ Stateful = (*BoundedTermination)(nil)

// Name implements MicroProtocol.
func (*BoundedTermination) Name() string { return "Bounded Termination" }

func (bt *BoundedTermination) bound() time.Duration {
	return OrDefault(bt.TimeBound, DefaultTimeBound)
}

func (bt *BoundedTermination) spec() any {
	return struct{ bound time.Duration }{bt.bound()}
}

// ExportState implements Stateful.
func (bt *BoundedTermination) ExportState() any {
	bt.mu.Lock()
	defer bt.mu.Unlock()
	return bt.queue
}

// ImportState implements Stateful: the still-queued ids (calls whose old
// deadline had not fired at swap time) are re-armed under the new bound,
// preserving the one-timer-per-queued-id pairing. Completed calls among
// them are harmless — their timeout finds no waiting record and no-ops.
func (bt *BoundedTermination) ImportState(state any) {
	ids := state.([]msg.CallID)
	bt.mu.Lock()
	bt.queue = ids
	bt.mu.Unlock()
	for range ids {
		bt.arm()
	}
}

// arm schedules one deadline firing; each firing times out the queue head.
// Arming through the binding means a pending deadline dies with Detach
// instead of firing into a detached protocol.
func (bt *BoundedTermination) arm() {
	fw := bt.b.fw
	bt.b.After("BoundedTerm.handleTimeout", bt.bound(),
		func(*event.Occurrence) {
			bt.mu.Lock()
			if len(bt.queue) == 0 {
				bt.mu.Unlock()
				return
			}
			qid := bt.queue[0]
			bt.queue = bt.queue[1:]
			bt.mu.Unlock()
			fw.timeoutCall(qid)
		})
}

// Attach implements MicroProtocol.
func (bt *BoundedTermination) Attach(fw *Framework) error {
	b := NewBinding(fw)
	bt.b = b
	bt.queue = nil

	b.On(event.NewRPCCall, "BoundedTerm.handleNewCall", event.DefaultPriority,
		func(o *event.Occurrence) {
			id := *o.Arg.(*msg.CallID)
			bt.mu.Lock()
			bt.queue = append(bt.queue, id)
			bt.mu.Unlock()
			bt.arm()
		})
	return b.Err()
}

// Detach implements MicroProtocol.
func (bt *BoundedTermination) Detach(*Framework) { bt.b.Detach() }

// timeoutCall marks a still-pending call TIMEOUT and wakes its caller.
func (fw *Framework) timeoutCall(id msg.CallID) {
	var s *sem.Sem
	fw.WithClient(id, func(rec *ClientRecord) {
		if rec.Status == msg.StatusWaiting {
			rec.Status = msg.StatusTimeout
			s = rec.Sem
		}
	})
	if s != nil {
		if fw.Tracing() {
			fw.Emit(trace.Event{Kind: trace.KCallDone, Client: fw.Self(), ID: id,
				Status: msg.StatusTimeout})
		}
		s.V()
	}
}
