package core

import (
	"sync"
	"sync/atomic"

	"mrpc/internal/msg"
	"mrpc/internal/trace"
)

// defaultFlushSize caps how many messages one batch frame carries when the
// configuration does not say otherwise.
const defaultFlushSize = 16

// Flusher is the per-destination flush queue between the micro-protocols
// and the transport (deviation D16). Every outbound message — call
// multicasts, retransmissions, acks, replies, ordering traffic — passes
// through it; only the failure detector's heartbeats bypass it (they are
// pushed on the raw endpoint by the facade).
//
// The policy is immediate-when-idle: a message that finds its destination
// queue idle claims the drainer role and sends on the caller's goroutine,
// so the uncontended path adds no latency and no batching machinery.
// Messages arriving while a drain is in progress park in the queue and go
// out together as one frozen batch frame on the drainer's next loop
// iteration — batching depth adapts to concurrency, with no flusher
// goroutine and no idle timer. A pipeline hold (PipelineBegin/End) parks
// messages deliberately, up to the size cap; ForceFlush (CloseAdmission,
// PipelineEnd) empties every queue regardless of holds so a drain-class
// reconfiguration can never wedge behind a parked batch.
//
// A reply hold (holdReplies/releaseReplies) is narrower: while a delivered
// batch frame is dispatched, replies to its sender park in that sender's
// lane and leave as one batch frame when the dispatch ends. Only replies
// park under it, and none while a local caller is parked on a reply
// (waitBegin/waitEnd): any other message drains the lane at once, carrying
// the parked replies with it.
type Flusher struct {
	fw  *Framework
	net *Disseminator // the dissemination layer beneath the queues

	mu     sync.Mutex
	max    int // batch size cap (Config.FlushSize)
	holds  int // open pipeline holds; >0 parks messages below the cap
	queues map[msg.ProcID]*destQueue

	// held counts the lanes under a reply hold (written under mu) and
	// waiters the local callers parked on a reply; both are read without
	// mu on the caller's wait path.
	held    atomic.Int32
	waiters atomic.Int32
}

// destQueue is one destination's pending lane.
type destQueue struct {
	pending    []*msg.NetMsg
	active     bool // a drainer is committed to this queue
	forced     bool // ForceFlush wants the lane empty despite holds
	replyHolds int  // open batch dispatches from this destination
}

func newFlusher(fw *Framework, net *Disseminator, max int) *Flusher {
	if max <= 0 {
		max = defaultFlushSize
	}
	return &Flusher{
		fw:     fw,
		net:    net,
		max:    max,
		queues: make(map[msg.ProcID]*destQueue),
	}
}

// SetMax changes the batch size cap (live reconfiguration).
func (f *Flusher) SetMax(max int) {
	if max <= 0 {
		max = defaultFlushSize
	}
	f.mu.Lock()
	f.max = max
	f.mu.Unlock()
}

// queueOf returns (creating on first use) the destination's lane.
// Callers hold f.mu.
func (f *Flusher) queueOf(to msg.ProcID) *destQueue {
	q := f.queues[to]
	if q == nil {
		q = &destQueue{}
		f.queues[to] = q
	}
	return q
}

// waits reports whether the lane's pending messages stay parked: below the
// size cap, a pipeline hold parks anything and a reply hold parks a lane
// holding only replies while no local caller waits for a reply. Callers
// hold f.mu.
func (f *Flusher) waits(q *destQueue) bool {
	if len(q.pending) >= f.max {
		return false
	}
	if f.holds > 0 {
		return true
	}
	if q.replyHolds == 0 || f.waiters.Load() > 0 {
		return false
	}
	for _, m := range q.pending {
		if m.Type != msg.OpReply {
			return false
		}
	}
	return true
}

// Push implements Transport: enqueue for one destination and drain unless
// a drainer is already committed or a hold parks the lane.
func (f *Flusher) Push(to msg.ProcID, m *msg.NetMsg) {
	f.mu.Lock()
	q := f.queueOf(to)
	q.pending = append(q.pending, m)
	if q.active || f.waits(q) {
		f.mu.Unlock()
		return
	}
	q.active = true
	f.mu.Unlock()
	f.drain(to, q, false)
}

// Multicast implements Transport. When every destination lane is idle and
// no pipeline is open, the multicast goes straight to the transport — the
// encode-once, single-admission group path (D13) stays intact. Otherwise
// the frozen message is enqueued per member and rides each lane's batch.
func (f *Flusher) Multicast(group msg.Group, m *msg.NetMsg) { f.multicast(group, m, false) }

// MulticastOthers is Multicast to every member of group but this node
// (Framework.MulticastOthers).
func (f *Flusher) MulticastOthers(group msg.Group, m *msg.NetMsg) {
	f.multicast(group, m, true)
}

// multicast sends m to group; with others set, this node's own lane is
// skipped.
func (f *Flusher) multicast(group msg.Group, m *msg.NetMsg, others bool) {
	var skip msg.ProcID // 0 is no process id
	if others {
		skip = f.fw.Self()
	}
	f.mu.Lock()
	direct := f.holds == 0
	if direct {
		for _, to := range group {
			if q := f.queues[to]; to != skip && q != nil && len(q.pending) > 0 {
				direct = false
				break
			}
		}
	}
	if direct {
		f.mu.Unlock()
		f.net.multicast(group, m, others)
		return
	}
	// The message joins several lanes at once and must be immutable from
	// here on, exactly as if the transport had accepted it.
	m.Freeze()
	var claimedBuf [8]claimedLane
	claimed := claimedBuf[:0]
	for _, to := range group {
		if to == skip {
			continue
		}
		q := f.queueOf(to)
		q.pending = append(q.pending, m)
		if q.active || f.waits(q) {
			continue
		}
		q.active = true
		claimed = append(claimed, claimedLane{to, q})
	}
	f.mu.Unlock()
	for _, c := range claimed {
		f.drain(c.to, c.q, false)
	}
}

// claimedLane pairs a destination with its queue, captured under f.mu so
// drains after unlock never touch the lane map.
type claimedLane struct {
	to msg.ProcID
	q  *destQueue
}

// drain sends the destination's pending messages until the lane empties
// (or a hold parks the remainder below the cap). The caller must
// have set q.active under f.mu; drain clears it before returning. Singleton
// takes are sent as themselves — batching never costs the lone message a
// frame — and larger takes go out as one NewBatch frame.
func (f *Flusher) drain(to msg.ProcID, q *destQueue, force bool) {
	for {
		f.mu.Lock()
		n := len(q.pending)
		if n == 0 || (!force && !q.forced && f.waits(q)) {
			if n == 0 {
				q.forced = false
			}
			q.active = false
			f.mu.Unlock()
			return
		}
		if n > f.max {
			n = f.max
		}
		var single *msg.NetMsg
		var subs []*msg.NetMsg
		if n == 1 {
			single = q.pending[0]
		} else {
			// NewBatch retains the slice, so the batch gets its own copy;
			// the cost amortizes across the batch.
			subs = make([]*msg.NetMsg, n)
			copy(subs, q.pending[:n])
		}
		rem := copy(q.pending, q.pending[n:])
		for i := rem; i < len(q.pending); i++ {
			q.pending[i] = nil
		}
		q.pending = q.pending[:rem]
		f.mu.Unlock()

		if single != nil {
			f.net.Push(to, single)
			continue
		}
		f.net.Push(to, msg.NewBatch(f.fw.Self(), subs))
		if f.fw.Tracing() {
			f.fw.Emit(trace.Event{Kind: trace.KBatchFlushed, From: to, Op: msg.OpID(len(subs))})
		}
	}
}

// PipelineBegin opens a pipeline hold: subsequent messages park in their
// lanes (up to the size cap) instead of flushing immediately. Holds nest.
func (f *Flusher) PipelineBegin() {
	f.mu.Lock()
	f.holds++
	f.mu.Unlock()
}

// PipelineEnd closes a pipeline hold and, once the last hold is gone,
// flushes everything parked.
func (f *Flusher) PipelineEnd() {
	f.mu.Lock()
	if f.holds > 0 {
		f.holds--
	}
	last := f.holds == 0
	f.mu.Unlock()
	if last {
		f.ForceFlush()
	}
}

// holdReplies opens a reply hold on to's lane for the dispatch of a batch
// frame from to. Holds nest; pair each with releaseReplies.
func (f *Flusher) holdReplies(to msg.ProcID) {
	f.mu.Lock()
	q := f.queueOf(to)
	if q.replyHolds == 0 {
		f.held.Add(1)
	}
	q.replyHolds++
	f.mu.Unlock()
}

// releaseReplies closes a reply hold on to's lane and, once the last one is
// gone, sends the replies parked under it.
func (f *Flusher) releaseReplies(to msg.ProcID) {
	f.mu.Lock()
	q := f.queues[to]
	q.replyHolds--
	if q.replyHolds > 0 {
		f.mu.Unlock()
		return
	}
	f.held.Add(-1)
	if q.active || len(q.pending) == 0 {
		f.mu.Unlock()
		return
	}
	q.active = true
	f.mu.Unlock()
	f.drain(to, q, false)
}

// waitBegin records a local caller parking on a reply, until waitEnd. The
// first such caller sends every reply parked under a reply hold: the
// caller may be a procedure of the batch being dispatched, and the reply
// it waits for may depend on those replies reaching their client.
func (f *Flusher) waitBegin() {
	if f.waiters.Add(1) > 1 || f.held.Load() == 0 {
		return
	}
	var claimedBuf [8]claimedLane
	claimed := claimedBuf[:0]
	f.mu.Lock()
	for to, q := range f.queues {
		if q.replyHolds > 0 && len(q.pending) > 0 && !q.active {
			q.active = true
			claimed = append(claimed, claimedLane{to, q})
		}
	}
	f.mu.Unlock()
	for _, c := range claimed {
		f.drain(c.to, c.q, false)
	}
}

// waitEnd records that a caller counted by waitBegin has its reply.
func (f *Flusher) waitEnd() { f.waiters.Add(-1) }

// ForceFlush empties every lane regardless of holds. Lanes with a
// committed drainer are marked forced — the drainer's next loop iteration
// takes the remainder instead of parking it — so on return every message
// enqueued before the call is either sent or owned by a drainer that will
// send it. CloseAdmission relies on this: a drain-class reconfiguration
// must observe the parked calls on the wire, not wedged in a queue.
func (f *Flusher) ForceFlush() {
	var claimedBuf [8]claimedLane
	claimed := claimedBuf[:0]
	f.mu.Lock()
	for to, q := range f.queues {
		if len(q.pending) == 0 {
			continue
		}
		if q.active {
			q.forced = true
			continue
		}
		q.active = true
		claimed = append(claimed, claimedLane{to, q})
	}
	f.mu.Unlock()
	for _, c := range claimed {
		f.drain(c.to, c.q, true)
	}
}
