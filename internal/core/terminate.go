package core

import (
	"sync"
	"time"

	"mrpc/internal/event"
	"mrpc/internal/msg"
	"mrpc/internal/trace"
)

// TerminateOrphan implements the second orphan-handling option (§4.4.7):
// orphans are killed as soon as they are detected. The paper names two
// detection approaches and both are implemented:
//
//  1. incarnation detection (always on): receiving a message from a newer
//     incarnation of a client proves the previous incarnation died, so the
//     kill token of every older generation is killed and its held calls
//     dropped;
//  2. probing (enabled by ProbeInterval > 0): while a client has work in
//     progress the server probes it periodically; a client that misses
//     ProbeMisses consecutive probes is presumed crashed and its
//     computations are killed. A live client's composite answers probes
//     automatically (this micro-protocol registers the responder on both
//     sides, like every other micro-protocol in the symmetric composite).
//
// Kills go through the framework's registry of per-generation kill tokens;
// nothing is kept per call (D6). Kill is cooperative (D5): the tables are
// cleaned up at once, the running procedures observe the kill at their next
// cancellation point, and their replies are suppressed either way.
type TerminateOrphan struct {
	// ProbeInterval enables probing detection when positive.
	ProbeInterval time.Duration
	// ProbeMisses is how many consecutive unanswered probes declare the
	// client dead (default 3).
	ProbeMisses int

	b  *Binding
	mu sync.Mutex
	// info migrates across a probe-parameter swap so the successor instance
	// keeps each client's incarnation and probe count.
	info map[msg.ProcID]*toEntry
}

var _ MicroProtocol = (*TerminateOrphan)(nil)
var _ Stateful = (*TerminateOrphan)(nil)

type toEntry struct {
	inc    msg.Incarnation
	missed int // consecutive unanswered probes
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
			m := o.Arg.(*NetEvent).Msg
			if m.Type != msg.OpCall {
				return
			}
			client := m.Client

			to.mu.Lock()
			ci, ok := to.info[client]
			if !ok {
				ci = &toEntry{inc: m.Inc}
				to.info[client] = ci
			}
			switch {
			case ci.inc > m.Inc:
				// The call itself is an orphan of a dead incarnation.
				to.mu.Unlock()
				o.Cancel()
			case ci.inc < m.Inc:
				// Newer incarnation detected: everything running for the
				// old one is an orphan. Kill it.
				ci.inc = m.Inc
				to.mu.Unlock()
				fw.threads.KillBelow(client, m.Inc)
				fw.dropCallsOlderThan(client, m.Inc)
			default:
				to.mu.Unlock()
			}
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
		// A client has work in progress while sRPC holds one of its calls.
		busy := make(map[msg.ProcID]bool)
		fw.EachServer(func(r *ServerRecord) { busy[r.Client] = true })
		var targets, dead []msg.ProcID
		to.mu.Lock()
		for client, ci := range to.info {
			if !busy[client] {
				ci.missed = 0
				continue
			}
			ci.missed++
			if ci.missed > probeMisses {
				// Presumed crashed: kill its computations. If the client
				// is in fact alive (false suspicion), its retransmissions
				// re-execute the calls later under a fresh token.
				ci.missed = 0
				dead = append(dead, client)
				continue
			}
			targets = append(targets, client)
		}
		to.mu.Unlock()
		for _, client := range targets {
			fw.Net().Push(client, &msg.NetMsg{
				Type:   msg.OpProbe,
				Sender: fw.Self(),
				Inc:    fw.Inc(),
			})
		}
		for _, client := range dead {
			fw.threads.KillClient(client)
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
// older than inc, releasing its execution slot — the cleanup companion of
// Terminate Orphan's kill sweep, which kills the calls' generations first.
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
		// Unlike DropServerCall the sweep may take an executing call (its
		// token is already killed). Emit the kill only when the drop landed:
		// a call whose execution took its own record replied legitimately.
		rec, ok := fw.servers.take(k)
		if !ok {
			continue
		}
		releaseServerRec(rec)
		if fw.Tracing() {
			fw.Emit(trace.Event{Kind: trace.KOrphanKilled, Client: k.Client, ID: k.ID})
		}
	}
}
