package core

import (
	"sync"
	"time"

	"mrpc/internal/event"
	"mrpc/internal/msg"
	"mrpc/internal/proc"
	"mrpc/internal/trace"
)

// TerminateOrphan implements the second orphan-handling option (§4.4.7):
// orphans are killed as soon as they are detected. The paper names two
// detection approaches and both are implemented:
//
//  1. incarnation detection (always on): receiving a message from a newer
//     incarnation of a client proves the previous incarnation died, so
//     every thread still executing that client's old calls is killed and
//     its held calls dropped;
//  2. probing (enabled by ProbeInterval > 0): while a client has work in
//     progress the server probes it periodically; a client that misses
//     ProbeMisses consecutive probes is presumed crashed and its
//     computations are killed. A live client's composite answers probes
//     automatically (this micro-protocol registers the responder on both
//     sides, like every other micro-protocol in the symmetric composite).
//
// Deviation D5: Go threads are killed cooperatively — the thread token is
// marked killed, the execution slot and tables are cleaned up immediately,
// and the running procedure observes the kill at its next cancellation
// point; its reply is suppressed either way.
type TerminateOrphan struct {
	// ProbeInterval enables probing detection when positive.
	ProbeInterval time.Duration
	// ProbeMisses is how many consecutive unanswered probes declare the
	// client dead (default 3).
	ProbeMisses int

	b  *Binding
	mu sync.Mutex
	// info migrates across a probe-parameter swap so threads executing
	// old-generation calls remain killable by the successor instance.
	info map[msg.ProcID]*toEntry
}

var _ MicroProtocol = (*TerminateOrphan)(nil)
var _ Stateful = (*TerminateOrphan)(nil)

type toEntry struct {
	inc     msg.Incarnation
	threads map[int64]*proc.Thread
	missed  int // consecutive unanswered probes
}

// Name implements MicroProtocol.
func (*TerminateOrphan) Name() string { return "Terminate Orphan" }

func (to *TerminateOrphan) params() (time.Duration, int) {
	return to.ProbeInterval, OrDefault(to.ProbeMisses, DefaultProbeMisses)
}

func (to *TerminateOrphan) spec() any {
	interval, misses := to.params()
	return struct {
		interval time.Duration
		misses   int
	}{interval, misses}
}

// ExportState implements Stateful.
func (to *TerminateOrphan) ExportState() any {
	to.mu.Lock()
	defer to.mu.Unlock()
	return to.info
}

// ImportState implements Stateful.
func (to *TerminateOrphan) ImportState(state any) {
	to.mu.Lock()
	to.info = state.(map[msg.ProcID]*toEntry)
	to.mu.Unlock()
}

// Attach implements MicroProtocol.
func (to *TerminateOrphan) Attach(fw *Framework) error {
	probeInterval, probeMisses := to.params()
	b := NewBinding(fw)
	to.b = b
	to.info = make(map[msg.ProcID]*toEntry)

	b.On(event.MsgFromNetwork, "TerminateOrphan.msgFromNet", PrioOrphan,
		func(o *event.Occurrence) {
			ev := o.Arg.(*NetEvent)
			m := ev.Msg
			if m.Type != msg.OpCall || ev.Thread == nil {
				return
			}
			client := m.Client
			th := ev.Thread

			to.mu.Lock()
			ci, ok := to.info[client]
			if !ok {
				ci = &toEntry{inc: m.Inc, threads: make(map[int64]*proc.Thread)}
				to.info[client] = ci
			}
			switch {
			case ci.inc > m.Inc:
				// The call itself is an orphan of a dead incarnation.
				to.mu.Unlock()
				o.Cancel()
				return
			case ci.inc < m.Inc:
				// Newer incarnation detected: everything running for the
				// old one is an orphan. Kill it.
				orphans := ci.threads
				ci.inc = m.Inc
				ci.threads = map[int64]*proc.Thread{th.ID(): th}
				to.mu.Unlock()
				for _, t := range orphans {
					t.Kill()
				}
				fw.dropCallsOlderThan(client, m.Inc)
			default:
				ci.threads[th.ID()] = th
				to.mu.Unlock()
			}
			o.OnCancel(func(*event.Occurrence) {
				to.mu.Lock()
				delete(ci.threads, th.ID())
				to.mu.Unlock()
			})
		})

	b.On(event.ReplyFromServer, "TerminateOrphan.handleReply", PrioReplyBookkeep,
		func(o *event.Occurrence) {
			key := *o.Arg.(*msg.CallKey)
			var th *proc.Thread
			fw.WithServer(key, func(rec *ServerRecord) { th = rec.Thread })
			if th == nil {
				return
			}
			to.mu.Lock()
			if ci, ok := to.info[key.Client]; ok {
				delete(ci.threads, th.ID())
			}
			to.mu.Unlock()
		})

	// Probing detection (§4.4.7, second option).
	b.On(event.MsgFromNetwork, "TerminateOrphan.probes", PrioOrphan,
		func(o *event.Occurrence) {
			m := o.Arg.(*NetEvent).Msg
			switch m.Type {
			case msg.OpProbe:
				// Client side: prove liveness.
				fw.Net().Push(m.Sender, &msg.NetMsg{
					Type:   msg.OpProbeAck,
					Sender: fw.Self(),
					Inc:    fw.Inc(),
				})
			case msg.OpProbeAck:
				to.mu.Lock()
				if ci, ok := to.info[m.Sender]; ok {
					ci.missed = 0
				}
				to.mu.Unlock()
			}
		})
	if probeInterval <= 0 {
		return b.Err()
	}
	var probe event.Handler
	probe = func(*event.Occurrence) {
		var (
			targets []msg.ProcID
			dead    []msg.ProcID
			orphans []*proc.Thread
		)
		to.mu.Lock()
		for client, ci := range to.info {
			if len(ci.threads) == 0 {
				ci.missed = 0
				continue
			}
			ci.missed++
			if ci.missed > probeMisses {
				// Presumed crashed: kill its computations. If the client
				// is in fact alive (false suspicion), its retransmissions
				// re-execute the calls later.
				for _, t := range ci.threads {
					orphans = append(orphans, t)
				}
				ci.threads = make(map[int64]*proc.Thread)
				ci.missed = 0
				dead = append(dead, client)
				continue
			}
			targets = append(targets, client)
		}
		to.mu.Unlock()
		for _, t := range orphans {
			t.Kill()
		}
		for _, client := range targets {
			fw.Net().Push(client, &msg.NetMsg{
				Type:   msg.OpProbe,
				Sender: fw.Self(),
				Inc:    fw.Inc(),
			})
		}
		for _, client := range dead {
			fw.dropCallsOlderThan(client, maxInc)
		}
		b.After("TerminateOrphan.probe", probeInterval, probe)
	}
	b.After("TerminateOrphan.probe", probeInterval, probe)
	return b.Err()
}

// Detach implements MicroProtocol.
func (to *TerminateOrphan) Detach(*Framework) { to.b.Detach() }

// dropCallsOlderThan removes every held call of client with an incarnation
// older than inc, killing its thread and releasing its execution slot —
// the cleanup companion of Terminate Orphan's kill sweep.
func (fw *Framework) dropCallsOlderThan(client msg.ProcID, inc msg.Incarnation) {
	// The kill sweep must see one consistent snapshot of the client's held
	// calls — a call racing in from the dead incarnation must not slip
	// between shards — so it collects the keys under a full-table Tx.
	var keys []msg.CallKey
	fw.ServerTx(func(tx ServerTx) {
		tx.Each(func(r *ServerRecord) {
			if r.Client == client && r.Inc < inc {
				keys = append(keys, r.Key)
			}
		})
	})
	for _, k := range keys {
		// Emit the kill only when the drop actually landed: if the call's
		// execution won the race and took its own record, its reply is
		// legitimate and must not be flagged as an escaped orphan.
		if fw.DropServerCall(k) && fw.Tracing() {
			fw.Emit(trace.Event{Kind: trace.KOrphanKilled, Client: k.Client, ID: k.ID})
		}
	}
}
