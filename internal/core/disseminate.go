package core

import (
	"sync"
	"sync/atomic"

	"mrpc/internal/member"
	"mrpc/internal/msg"
	"mrpc/internal/trace"
)

// Disseminator is the configurable dissemination layer between the flush
// queue and the raw transport (DESIGN.md D17). In flat mode it is a
// pass-through. In tree mode a group multicast is sent only to this node's
// children in the deterministic k-ary tree rooted at the sender
// (msg.TreeChildren); every member that receives the frame relays the same
// frozen bytes to its own children, so sender egress is O(k) instead of
// O(g) and no hop re-encodes or clones (the frame's retained wire bytes
// travel verbatim — netsim forwards msg.Wire()).
//
// Receipt acknowledgements aggregate along the same tree: a leaf sends one
// OpRelayAck covering itself to its parent; an interior node waits until
// its subtree is covered, then forwards a single merged ack — so the
// origin's Reliable Communication settles O(k) messages instead of O(g).
// Aggregation is purely an optimization: Reliable's per-member
// retransmission (direct, flat) remains the correctness backstop for any
// frame or ack the tree loses.
//
// Failure repair is deterministic and local (D17): when the failure
// detector reports a member down, each node recomputes its effective
// children — a member whose static ancestors are all down is adopted by
// its first live ancestor — and re-delivers its window of recently relayed
// frames to the members it newly adopted. Divergent views between nodes
// can at worst duplicate a delivery (suppressed by the receipt window and
// Unique Execution), never mutate a frame.
type Disseminator struct {
	fw  *Framework
	net Transport // the raw substrate below

	// fanout is the tree fanout k; 0 or 1 selects flat dissemination.
	// Written only post-swap under the reconfiguration barrier
	// (SetTreeFanout), read on every multicast — hence atomic.
	fanout atomic.Int32

	// relayMu guards the relay window: a bounded ring of recently
	// originated/relayed frames, indexed by identity, holding each frame's
	// relay fan-out set and its ack-aggregation state. Sends and trace
	// emissions happen outside the lock.
	relayMu sync.Mutex
	entries map[relayKey]*relayEntry
	ring    [relayWindow]relayKey
	ringPos int

	// others caches the last group a flat skip-self send went to, with
	// that group minus this node, so a steady group's skip-self send
	// builds no slice.
	others atomic.Pointer[othersGroup]
}

// othersGroup pairs a multicast group with the same group minus this node.
// Both slices are private copies and never mutated after publication.
type othersGroup struct {
	group, others msg.Group
}

// relayWindow bounds how many in-flight frames a node can re-deliver
// during tree repair. Older frames fall to Reliable's retransmission.
const relayWindow = 64

// relayKey is the identity of a disseminated frame: the call key alone is
// not enough because ORDER frames for one call are distinct per sequence
// number and per origin.
type relayKey struct {
	t      msg.NetOp
	client msg.ProcID
	id     msg.CallID
	order  int64
	origin msg.ProcID
}

func keyOf(m *msg.NetMsg) relayKey {
	return relayKey{t: m.Type, client: m.Client, id: m.ID, order: m.Order, origin: m.Sender}
}

// relayEntry is one window slot: the frozen frame (retained for re-parent
// re-delivery) plus, for Call frames, the ack-aggregation state.
type relayEntry struct {
	key    relayKey
	m      *msg.NetMsg
	sentTo msg.Group // members this node has relayed or re-delivered to

	// Ack aggregation (Call frames on non-origin nodes only): expect is
	// the live static subtree below this node at receipt time; covered
	// collects the members whose receipt has been reported (self
	// included); acked flips once the merged ack has been forwarded.
	expect  msg.Group
	covered map[msg.ProcID]bool
	acked   bool
}

func newDisseminator(fw *Framework, net Transport, fanout int) *Disseminator {
	d := &Disseminator{fw: fw, net: net, entries: make(map[relayKey]*relayEntry)}
	d.fanout.Store(int32(fanout))
	return d
}

var _ Transport = (*Disseminator)(nil)

// SetFanout reconfigures the dissemination mode (0/1 = flat, k ≥ 2 =
// tree). Dissemination swaps are drain-class, so no stamped frame is in
// flight when this runs.
func (d *Disseminator) SetFanout(k int) { d.fanout.Store(int32(k)) }

// Push implements Transport: point-to-point sends bypass the tree.
func (d *Disseminator) Push(to msg.ProcID, m *msg.NetMsg) { d.net.Push(to, m) }

// Multicast implements Transport. In tree mode a group-addressed frame is
// stamped with the fanout and sent to this node's children only; everything
// else (flat mode, frames already frozen elsewhere, tiny groups, frames not
// addressed to the group they are multicast to) goes out flat.
func (d *Disseminator) Multicast(group msg.Group, m *msg.NetMsg) { d.multicast(group, m, false) }

// multicast is Multicast; with others set it leaves out the origin's own
// delivery (Framework.MulticastOthers): in tree mode the origin sends to
// its children and skips its own Push, and a flat send goes to the group
// minus this node.
func (d *Disseminator) multicast(group msg.Group, m *msg.NetMsg, others bool) {
	k := int(d.fanout.Load())
	if k < 2 || len(group) <= k || m.Type == msg.OpBatch || m.Frozen() ||
		m.Sender != d.fw.Self() || !m.Server.Equal(group) {
		d.flat(group, m, others)
		return
	}
	self := d.fw.Self()
	m.SetRelay(k)
	down := d.downFn()
	children := msg.TreeChildren(group, self, self, k, down)
	if len(children) == 0 {
		// Every member is down (per the local view); send flat so the
		// frame still reaches anyone the view is wrong about.
		d.flat(group, m, others)
		return
	}
	// Register before sending: the origin re-delivers from its window too
	// when a child fails before relaying.
	d.remember(m, children, nil)
	d.net.Multicast(children, m)
	if !others && group.Contains(self) {
		d.net.Push(self, m) // the origin's own delivery skips the tree
	}
	if d.fw.Tracing() {
		d.fw.Emit(trace.Event{Kind: trace.KRelay, From: self, Client: m.Client,
			ID: m.ID, Op: msg.OpID(len(children))})
	}
}

// flat sends m to every member of group, or with others set to every
// member but this node.
func (d *Disseminator) flat(group msg.Group, m *msg.NetMsg, others bool) {
	if others {
		group = d.othersOf(group)
	}
	d.net.Multicast(group, m)
}

// othersOf returns group without this node. The last answer is cached, so a
// node that keeps multicasting to one group allocates only when the group
// changes.
func (d *Disseminator) othersOf(group msg.Group) msg.Group {
	self := d.fw.Self()
	if !group.Contains(self) {
		return group
	}
	if c := d.others.Load(); c != nil && c.group.Equal(group) {
		return c.others
	}
	c := &othersGroup{group: group.Clone(), others: make(msg.Group, 0, len(group)-1)}
	for _, p := range group {
		if p != self {
			c.others = append(c.others, p)
		}
	}
	d.others.Store(c)
	return c.others
}

// downFn returns the membership view as a predicate, or nil when no member
// is currently reported down (the tree helpers take the cheap static path).
func (d *Disseminator) downFn() func(msg.ProcID) bool {
	ms := d.fw.Membership()
	if ms == nil {
		return nil
	}
	return ms.Down
}

// remember inserts a window entry for m, evicting the oldest ring slot.
func (d *Disseminator) remember(m *msg.NetMsg, sentTo msg.Group, expect msg.Group) *relayEntry {
	e := &relayEntry{key: keyOf(m), m: m, sentTo: sentTo, expect: expect}
	d.relayMu.Lock()
	if old, ok := d.entries[e.key]; ok {
		d.relayMu.Unlock()
		return old // lost the race: keep the first receipt's state
	}
	if evict := d.ring[d.ringPos]; evict != (relayKey{}) {
		delete(d.entries, evict)
	}
	d.ring[d.ringPos] = e.key
	d.ringPos = (d.ringPos + 1) % relayWindow
	d.entries[e.key] = e
	d.relayMu.Unlock()
	return e
}

// HandleRelay is the receive-side hook, called by the framework for every
// delivered frame with a relay stamp. On first receipt the frame is
// forwarded — the same frozen bytes — to this node's children, and for
// Call frames the receipt ack is started up the tree. Duplicates are not
// re-relayed. The frame is always dispatched to the composite afterwards;
// relaying is invisible to the micro-protocols.
func (d *Disseminator) HandleRelay(m *msg.NetMsg) {
	self := d.fw.Self()
	k := int(m.Relay)
	if k < 1 || m.Sender == self || !m.Server.Contains(self) {
		return
	}
	key := keyOf(m)
	d.relayMu.Lock()
	_, dup := d.entries[key]
	d.relayMu.Unlock()
	if dup {
		// A duplicate delivery means the origin is retransmitting through
		// the tree (e.g. a leader re-disseminating an ORDER assignment a
		// nudge asked for) or the network duplicated the frame. Relay it
		// onward — the tree is acyclic, so this cannot loop, and a subtree
		// that lost the first wave stays reachable through origin resends —
		// but do not re-register or re-ack.
		if ch := msg.TreeChildren(m.Server, m.Sender, self, k, d.downFn()); len(ch) > 0 {
			d.net.Multicast(ch, m)
		}
		return
	}

	group, origin := m.Server, m.Sender
	down := d.downFn()
	children := msg.TreeChildren(group, origin, self, k, down)
	var expect msg.Group
	if m.Type == msg.OpCall {
		expect = msg.TreeSubtree(group, origin, self, k, down)
	}
	e := d.remember(m, children, expect)

	if len(children) > 0 {
		d.net.Multicast(children, m)
		if d.fw.Tracing() {
			d.fw.Emit(trace.Event{Kind: trace.KRelay, From: origin, Client: m.Client,
				ID: m.ID, Op: msg.OpID(len(children))})
		}
	}
	if m.Type == msg.OpCall {
		d.relayMu.Lock()
		if e.covered == nil {
			e.covered = make(map[msg.ProcID]bool, len(expect)+1)
		}
		e.covered[self] = true
		send, cover := d.maybeAggregateLocked(e)
		d.relayMu.Unlock()
		if send {
			d.sendRelayAck(e, cover, k, down)
		}
	}
}

// ConsumeRelayAck handles an arriving OpRelayAck. At the call's origin it
// reports false so the frame dispatches to Reliable Communication; on an
// interior node it merges the child's cover into the aggregation state and
// forwards one merged ack once the subtree is covered (or forwards the ack
// verbatim toward the origin when the window has no entry). Returns true
// when the frame was consumed here.
func (d *Disseminator) ConsumeRelayAck(m *msg.NetMsg) bool {
	if m.Client == d.fw.Self() {
		return false
	}
	key := relayKey{t: msg.OpCall, client: m.Client, id: m.AckID, origin: m.Client}
	d.relayMu.Lock()
	e, ok := d.entries[key]
	if !ok {
		d.relayMu.Unlock()
		// No aggregation state (evicted, or the ack outran the call):
		// forward the frozen ack verbatim to the origin — correct, merely
		// unaggregated.
		d.net.Push(m.Client, m)
		return true
	}
	if e.covered == nil {
		e.covered = make(map[msg.ProcID]bool)
	}
	for _, p := range msg.DecodeProcIDs(m.Args) {
		e.covered[p] = true
	}
	send, cover := d.maybeAggregateLocked(e)
	k := int(e.m.Relay)
	d.relayMu.Unlock()
	if send {
		d.sendRelayAck(e, cover, k, d.downFn())
	}
	return true
}

// maybeAggregateLocked decides whether e's merged ack should be forwarded
// now: every live member of the expected subtree (and self) is covered and
// no ack has gone out yet. Caller holds relayMu; the cover snapshot is
// returned so the send happens outside the lock.
func (d *Disseminator) maybeAggregateLocked(e *relayEntry) (bool, []msg.ProcID) {
	if e.acked || e.covered == nil {
		return false, nil
	}
	down := d.downFn()
	for _, p := range e.expect {
		if !e.covered[p] && (down == nil || !down(p)) {
			return false, nil
		}
	}
	e.acked = true
	cover := make([]msg.ProcID, 0, len(e.covered))
	for p := range e.covered {
		cover = append(cover, p)
	}
	return true, cover
}

// sendRelayAck forwards the merged cover one hop up the tree (to the first
// live ancestor, or the origin itself).
func (d *Disseminator) sendRelayAck(e *relayEntry, cover []msg.ProcID, k int, down func(msg.ProcID) bool) {
	self := d.fw.Self()
	parent := msg.TreeParent(e.m.Server, e.key.origin, self, k, down)
	if parent == 0 {
		parent = e.key.origin
	}
	d.net.Push(parent, &msg.NetMsg{
		Type:   msg.OpRelayAck,
		Client: e.key.client,
		Sender: self,
		Inc:    d.fw.Inc(),
		AckID:  e.key.id,
		Args:   msg.AppendProcIDs(nil, cover),
	})
}

// OnMembership repairs the in-flight window after a failure: recompute the
// effective children for every windowed frame and re-deliver the frozen
// bytes to members this node newly adopted (KReparent). A recovery needs no
// action — re-integration is Reliable's retransmission's job.
func (d *Disseminator) OnMembership(c member.Change) {
	if c.Kind != member.Failure {
		return
	}
	self := d.fw.Self()
	down := d.downFn()
	type redeliver struct {
		m       *msg.NetMsg
		adopted msg.Group
	}
	var work []redeliver
	d.relayMu.Lock()
	for _, e := range d.entries {
		k := int(e.m.Relay)
		if k < 1 || (self != e.key.origin && !e.m.Server.Contains(self)) {
			continue
		}
		children := msg.TreeChildren(e.m.Server, e.key.origin, self, k, down)
		var adopted msg.Group
		for _, p := range children {
			if !e.sentTo.Contains(p) {
				adopted = append(adopted, p)
			}
		}
		if len(adopted) == 0 {
			continue
		}
		e.sentTo = append(e.sentTo, adopted...)
		work = append(work, redeliver{m: e.m, adopted: adopted})
	}
	// The failed member can no longer ack; pending aggregations may now be
	// complete without it.
	type ackWork struct {
		e     *relayEntry
		cover []msg.ProcID
		k     int
	}
	var acks []ackWork
	for _, e := range d.entries {
		if send, cover := d.maybeAggregateLocked(e); send {
			acks = append(acks, ackWork{e: e, cover: cover, k: int(e.m.Relay)})
		}
	}
	d.relayMu.Unlock()

	for _, w := range work {
		d.net.Multicast(w.adopted, w.m)
		if d.fw.Tracing() {
			d.fw.Emit(trace.Event{Kind: trace.KReparent, From: c.Who,
				Client: w.m.Client, ID: w.m.ID, Op: msg.OpID(len(w.adopted))})
		}
	}
	for _, a := range acks {
		d.sendRelayAck(a.e, a.cover, a.k, down)
	}
}
