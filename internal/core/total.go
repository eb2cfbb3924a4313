package core

import (
	"cmp"
	"encoding/binary"
	"slices"
	"sync"
	"time"

	"mrpc/internal/event"
	"mrpc/internal/member"
	"mrpc/internal/msg"
)

// TotalOrder guarantees that the calls of all clients are processed in the
// same total order by every group member (§4.4.6). One member — the leader,
// defined as the non-failed server with the largest identifier — assigns
// sequence numbers to calls and disseminates them in ORDER messages; every
// member executes calls strictly in sequence-number order.
//
// The paper's implementation assumes Reliable Communication and Unique
// Execution are configured and Bounded Termination is not; the dependency
// graph in internal/config enforces this.
//
// Leader change implements the agreement phase the paper omits "for
// brevity" (§4.4.6): the new leader queries the surviving members for the
// assignments they have seen (ORDER_QUERY/ORDER_INFO), merges their order
// tables, adopts a sequence number above everything reported, and
// re-disseminates the merged assignments — so an assignment the failed
// leader managed to deliver to any surviving member is preserved rather
// than renumbered divergently. Fresh assignments are deferred for
// AgreementDelay while the query round completes. This is crash-stop
// agreement over fair-lossy links (the query round itself is retried by
// the nudge timer), not partition-tolerant consensus; see DESIGN.md D4.
//
// A member keeps its order table as a window from a group-stable entry S
// up: each follower reports its next entry to the leader on the nudge tick,
// the leader takes S as the lowest position of every member (its own
// included) and stamps it on every ORDER, and every member drops the
// assignments below min(S, its own next entry). ORDER_INFO ships that base
// plus the window, so its size does not grow with the group's history.
type TotalOrder struct {
	// NudgeInterval is how often a follower re-forwards calls that are
	// still waiting for a sequence number to the current leader, and
	// reports its position when it has moved (default 20ms). The paper
	// relies on client retransmissions to trigger this forwarding; with
	// receipt-acknowledged reliable communication (D11) those stop, so
	// order-message loss is recovered by the group itself.
	NudgeInterval time.Duration
	// AgreementDelay is how long a new leader collects ORDER_INFO replies
	// before assigning fresh sequence numbers (default 3x NudgeInterval).
	AgreementDelay time.Duration

	b  *Binding
	st *totalState
}

var _ MicroProtocol = (*TotalOrder)(nil)
var _ Stateful = (*TotalOrder)(nil)
var _ Sequencer = (*TotalOrder)(nil)

type totalState struct {
	mu sync.Mutex
	// entries is the order table indexed by entry number: the assignments
	// from the base up and, per entry, whether its call is held here until
	// the entry comes up. Every member has executed every entry below the
	// base, so no nudge can ask for one of those again (D4).
	entries   seqWindow[int64, orderSlot]
	index     map[msg.CallKey]int64       // entry of each call assigned at or above the base
	waiting   map[msg.CallKey]*msg.NetMsg // full call, for re-forwarding
	nextOrder int64                       // leader: next number to assign
	nextEntry int64                       // all: next number allowed to execute
	stable    int64                       // S: every member has executed every entry below it
	reports   map[msg.ProcID]int64        // each member's last reported nextEntry
	reported  int64                       // nextEntry at this member's last report
	groups    []msg.Group                 // groups observed, for leader takeover; append-only
	syncing   bool                        // new leader collecting ORDER_INFO; defer assignments
}

// orderSlot is one entry of the order table.
type orderSlot struct {
	key      msg.CallKey // the call assigned this entry
	assigned bool
	held     bool // the call is here, waiting for its entry to come up
}

// maxOrderAhead caps how far above its own next entry a member takes an
// assignment from the network. A forged or corrupt ORDER cannot grow the
// order table past it; a genuine one that far ahead is dropped, and the
// follower's nudge asks for it again once it has caught up.
const maxOrderAhead = 1 << 18

// observeLocked records g as an observed group. Groups are few, so a scan
// with Equal beats hashing a formatted key, and only a group's first
// sighting clones it. The slice is append-only: a snapshot taken under the
// lock stays valid after the lock is released. Caller holds st.mu.
func (st *totalState) observeLocked(g msg.Group) {
	for _, o := range st.groups {
		if o.Equal(g) {
			return
		}
	}
	st.groups = append(st.groups, g.Clone())
}

// waitingLocked returns the calls waiting for a number in key order, so a
// seeded run re-forwards and numbers them in one order. Caller holds st.mu.
func (st *totalState) waitingLocked() []*msg.NetMsg {
	if len(st.waiting) == 0 {
		return nil
	}
	out := make([]*msg.NetMsg, 0, len(st.waiting))
	for _, m := range st.waiting {
		out = append(out, m)
	}
	slices.SortFunc(out, func(a, b *msg.NetMsg) int {
		return cmp.Or(cmp.Compare(a.Client, b.Client), cmp.Compare(a.ID, b.ID))
	})
	return out
}

// numberLocked gives key, which has no assignment, the next sequence
// number. Caller holds st.mu.
func (st *totalState) numberLocked(key msg.CallKey) int64 {
	ord := max(st.nextOrder, st.entries.base)
	st.nextOrder = ord + 1
	*st.entries.slot(ord) = orderSlot{key: key, assigned: true}
	st.index[key] = ord
	return ord
}

// recordLocked stores key's assignment to entry ord, unless the entry lies
// below the base or implausibly far ahead, or already names a call. key
// has no assignment yet. Caller holds st.mu.
func (st *totalState) recordLocked(key msg.CallKey, ord int64) bool {
	if ord < st.entries.base || ord-st.nextEntry >= maxOrderAhead {
		return false
	}
	s := st.entries.slot(ord)
	if s.assigned {
		return false
	}
	*s = orderSlot{key: key, assigned: true}
	st.index[key] = ord
	if st.nextOrder <= ord {
		st.nextOrder = ord + 1
	}
	return true
}

// holdLocked decides the fate of a call whose copy is here and whose
// assignment to entry ord is recorded: it is past, runs now, or is held in
// its entry. Caller holds st.mu.
func (st *totalState) holdLocked(ord int64) (past, now bool) {
	switch {
	case ord < st.nextEntry:
		return true, false
	case ord == st.nextEntry:
		return false, true
	}
	st.entries.peek(ord).held = true
	return false, false
}

// pruneStep is how many assignments below min(S, nextEntry) a member drops
// per call it executes. Pruning follows execution, and more than one entry
// per call lets the window catch up with S, without holding the lock for a
// whole report interval's worth of entries at once.
const pruneStep = 2

// pruneLocked drops up to pruneStep assignments below min(S, nextEntry),
// with their index entries. Caller holds st.mu.
func (st *totalState) pruneLocked() {
	floor := min(st.stable, st.nextEntry)
	for i := 0; i < pruneStep && st.entries.base < floor; i++ {
		if s := st.entries.peek(st.entries.base); s != nil && s.assigned {
			delete(st.index, s.key)
		}
		st.entries.advance(st.entries.base + 1)
	}
}

// reportLocked records member p's position and, from it, S: the lowest of
// this member's nextEntry and the last position reported by every other
// member of every observed group. A member that never reported, or that
// the detector calls down, holds S where its last report left it. Caller
// holds st.mu.
func (st *totalState) reportLocked(self, p msg.ProcID, pos int64) {
	if pos <= st.reports[p] {
		return
	}
	st.reports[p] = pos
	s := st.nextEntry
	for _, g := range st.groups {
		for _, q := range g {
			if q != self {
				s = min(s, st.reports[q])
			}
		}
	}
	st.stable = max(st.stable, s)
}

// orderInfoHeader and orderInfoEntry are the sizes of ORDER_INFO's fixed
// part (the base, then the entry count) and of one assignment in it.
const (
	orderInfoHeader = 8 + 4
	orderInfoEntry  = 4 + 8 + 8
)

// orderAssign is one assignment carried by ORDER_INFO.
type orderAssign struct {
	key msg.CallKey
	ord int64
}

// encodeOrdersLocked serializes the order table for ORDER_INFO: the base,
// then every assignment at or above it in entry order. Caller holds st.mu.
func (st *totalState) encodeOrdersLocked() []byte {
	w := &st.entries
	buf := make([]byte, orderInfoHeader, orderInfoHeader+orderInfoEntry*len(st.index))
	binary.BigEndian.PutUint64(buf, uint64(w.base))
	n := uint32(0)
	for e := w.base; e < w.base+int64(len(w.ring)); e++ {
		if s := w.peek(e); s.assigned {
			buf = binary.BigEndian.AppendUint32(buf, uint32(s.key.Client))
			buf = binary.BigEndian.AppendUint64(buf, uint64(s.key.ID))
			buf = binary.BigEndian.AppendUint64(buf, uint64(e))
			n++
		}
	}
	binary.BigEndian.PutUint32(buf[8:], n)
	return buf
}

// decodeOrders parses an ORDER_INFO payload. A payload whose entry count
// does not match its length is rejected before anything is sized by it.
func decodeOrders(data []byte) (base int64, orders []orderAssign, ok bool) {
	if len(data) < orderInfoHeader {
		return 0, nil, false
	}
	base = int64(binary.BigEndian.Uint64(data))
	n := binary.BigEndian.Uint32(data[8:])
	data = data[orderInfoHeader:]
	if uint64(len(data)) != uint64(n)*orderInfoEntry {
		return 0, nil, false
	}
	orders = make([]orderAssign, n)
	for i := range orders {
		orders[i] = orderAssign{
			key: msg.CallKey{
				Client: msg.ProcID(binary.BigEndian.Uint32(data)),
				ID:     msg.CallID(binary.BigEndian.Uint64(data[4:])),
			},
			ord: int64(binary.BigEndian.Uint64(data[12:])),
		}
		data = data[orderInfoEntry:]
	}
	return base, orders, true
}

// leader computes the group leader, treating members the membership
// service reports failed as down.
func (fw *Framework) totalLeader(g msg.Group) msg.ProcID {
	down := make(map[msg.ProcID]bool)
	for _, p := range g {
		if fw.Membership().Down(p) {
			down[p] = true
		}
	}
	return g.Leader(down)
}

// Name implements MicroProtocol.
func (*TotalOrder) Name() string { return "Total Order" }

func (to *TotalOrder) params() (nudge, agreement time.Duration) {
	nudge = to.NudgeInterval
	if nudge <= 0 {
		nudge = 20 * time.Millisecond
	}
	agreement = to.AgreementDelay
	if agreement <= 0 {
		agreement = 3 * nudge
	}
	return nudge, agreement
}

func (to *TotalOrder) spec() any {
	n, a := to.params()
	return struct{ n, a time.Duration }{n, a}
}

// ExportState implements Stateful.
func (to *TotalOrder) ExportState() any { return to.st }

// ImportState implements Stateful. Runs under the swap barrier, after
// Attach: subsequent dispatch acquires the barrier shared, which orders the
// replacement before every handler read.
func (to *TotalOrder) ImportState(state any) { to.st = state.(*totalState) }

// assign gives key a sequence number (reusing a previously seen assignment)
// and announces it.
func (to *TotalOrder) assign(fw *Framework, key msg.CallKey, group msg.Group) {
	st := to.st
	st.mu.Lock()
	ord, ok := st.index[key]
	if !ok {
		ord = st.numberLocked(key)
	}
	stable := st.stable
	st.mu.Unlock()
	to.announce(fw, key, group, ord, stable)
}

// announce makes an assignment known to the group: the ORDER goes to the
// other members, and this member applies it in place rather than receiving
// its own ORDER back through the network (D4). The send comes first so the
// followers are not kept waiting while a released call executes here.
func (to *TotalOrder) announce(fw *Framework, key msg.CallKey, group msg.Group, ord, stable int64) {
	to.sendOrder(fw, key, group, ord, stable)
	to.applyOrder(fw, key, ord, 0)
}

// sendOrder sends an assignment to the other members along the configured
// dissemination (a tree keeps the leader's egress at its fanout). The
// ORDER carries the group-stable entry S, below which the followers prune.
func (to *TotalOrder) sendOrder(fw *Framework, key msg.CallKey, group msg.Group, ord, stable int64) {
	fw.MulticastOthers(group, &msg.NetMsg{
		Type:   msg.OpOrder,
		ID:     key.ID,
		Client: key.Client,
		Server: group,
		Sender: fw.Self(),
		Inc:    fw.Inc(),
		AckID:  msg.CallID(stable),
		Order:  ord,
	})
}

// applyOrder records an assignment and releases/drops a held call
// accordingly (the body of the paper's ORDER handling); stable is the S the
// ORDER carried. An assignment below the base is not recorded again.
func (to *TotalOrder) applyOrder(fw *Framework, key msg.CallKey, order, stable int64) {
	st := to.st
	st.mu.Lock()
	st.stable = max(st.stable, stable)
	ord, ok := st.index[key]
	if !ok {
		ord = order
		if !st.recordLocked(key, ord) && ord >= st.nextEntry {
			// Too far ahead, or the entry names another call: a held
			// copy stays waiting, and the nudge asks again.
			st.mu.Unlock()
			return
		}
	}
	if _, held := st.waiting[key]; !held {
		st.mu.Unlock()
		return
	}
	delete(st.waiting, key)
	past, now := st.holdLocked(ord)
	st.mu.Unlock()
	switch {
	case past:
		fw.DropServerCall(key)
	case now:
		fw.ForwardUp(key, HoldTotal)
	}
}

// Adopt implements Sequencer: a call admitted to sRPC before this instance
// attached (or before a swap replaced its predecessor) re-enters the
// ordering pipeline — the leader assigns it a number, and the call is held
// until its slot comes up, exactly as for a fresh arrival.
func (to *TotalOrder) Adopt(key msg.CallKey, m *msg.NetMsg) {
	fw := to.fw()
	st := to.st
	st.mu.Lock()
	st.observeLocked(m.Server)
	syncing := st.syncing
	st.mu.Unlock()

	if fw.totalLeader(m.Server) == fw.Self() && !syncing {
		to.assign(fw, key, m.Server)
	}

	st.mu.Lock()
	ord, ok := st.index[key]
	if !ok {
		st.waiting[key] = m
		st.mu.Unlock()
		return
	}
	past, now := st.holdLocked(ord)
	st.mu.Unlock()
	switch {
	case past:
		fw.DropServerCall(key)
	case now:
		fw.ForwardUp(key, HoldTotal)
	}
}

func (to *TotalOrder) fw() *Framework { return to.b.fw }

// Attach implements MicroProtocol.
func (to *TotalOrder) Attach(fw *Framework) error {
	fw.SetHold(HoldTotal)
	nudgeInterval, agreementDelay := to.params()
	b := NewBinding(fw)
	to.b = b
	to.st = &totalState{
		index:     make(map[msg.CallKey]int64),
		waiting:   make(map[msg.CallKey]*msg.NetMsg),
		reports:   make(map[msg.ProcID]int64),
		nextOrder: 1,
		nextEntry: 1,
		stable:    1,
	}
	to.st.entries.base = 1

	// One long-lived cancellation compensation for a call held waiting for
	// its number: it reads the key from the occurrence instead of a
	// per-call capturing closure (D6).
	forgetWaiting := func(o *event.Occurrence) {
		key := o.Arg.(*NetEvent).Msg.Key()
		st := to.st
		st.mu.Lock()
		delete(st.waiting, key)
		st.mu.Unlock()
	}

	// A CALL for a call the leader has numbered is re-announced as soon as
	// it arrives (before any other processing): a follower that lost the
	// ORDER nudges the leader with the client's original call, which Unique
	// Execution may drop next as settled. Followers holding an unordered
	// call forward the client's retransmissions to the leader.
	b.On(event.MsgFromNetwork, "TotalOrder.assignOrder", PrioAssignOrder,
		func(o *event.Occurrence) {
			m := o.Arg.(*NetEvent).Msg
			if m.Type != msg.OpCall {
				return
			}
			key := m.Key()
			leader := fw.totalLeader(m.Server)
			st := to.st
			st.mu.Lock()
			st.observeLocked(m.Server)
			ord, known := st.index[key]
			_, isWaiting := st.waiting[key]
			syncing, stable := st.syncing, st.stable
			st.mu.Unlock()

			switch {
			case leader == fw.Self():
				if known && !syncing {
					to.announce(fw, key, m.Server, ord, stable)
				}
			case isWaiting:
				fw.Net().Push(leader, m)
			}
			// Unlike the paper, duplicates of already-executed calls are
			// NOT cancelled here: doing so (before Unique Execution's
			// handler) would suppress the retained-response resend that
			// recovers from a lost reply (deviation D8). The ordered
			// handler below drops them after Unique has had its chance.
		})

	b.On(event.MsgFromNetwork, "TotalOrder.msgFromNet", PrioOrder,
		func(o *event.Occurrence) {
			m := o.Arg.(*NetEvent).Msg
			st := to.st
			switch m.Type {
			case msg.OpCall:
				// The leader numbers a call here, once Unique Execution has
				// admitted it, so a duplicate (of a call that executed
				// before this instance attached, or of one whose assignment
				// was pruned) is never numbered: no reply would ever
				// release its entry. While a new leader collects ORDER_INFO
				// the call waits for the agreement round.
				key := m.Key()
				leads := fw.totalLeader(m.Server) == fw.Self()
				st.mu.Lock()
				ord, ok := st.index[key]
				fresh := !ok && leads && !st.syncing
				if fresh {
					ord, ok = st.numberLocked(key), true
				}
				if !ok {
					st.waiting[key] = m
					st.mu.Unlock()
					o.OnCancel(forgetWaiting)
					return
				}
				stable := st.stable
				past, now := st.holdLocked(ord)
				st.mu.Unlock()
				if fresh {
					to.sendOrder(fw, key, m.Server, ord, stable)
				}
				switch {
				case past:
					o.Cancel()
				case now:
					fw.ForwardUp(key, HoldTotal)
				}

			case msg.OpOrder:
				to.applyOrder(fw, m.Key(), m.Order, int64(m.AckID))

			case msg.OpOrderQuery:
				// A new leader is collecting assignments: report ours and
				// our position.
				st.mu.Lock()
				payload := st.encodeOrdersLocked()
				pos := st.nextEntry
				st.mu.Unlock()
				fw.Net().Push(m.Sender, &msg.NetMsg{
					Type:   msg.OpOrderInfo,
					Server: m.Server,
					Sender: fw.Self(),
					Inc:    fw.Inc(),
					Order:  pos,
					Args:   payload,
				})

			case msg.OpOrderInfo:
				// A member's position, and with a query's answer its order
				// table: adopt the higher base, merge the assignments, and
				// re-announce what we learned, in entry order, so every
				// member converges on the merged table.
				var (
					base    int64
					learned []orderAssign
					ok      bool
				)
				if len(m.Args) > 0 {
					if base, learned, ok = decodeOrders(m.Args); !ok {
						return
					}
				}
				st.mu.Lock()
				st.observeLocked(m.Server)
				st.reportLocked(fw.Self(), m.Sender, m.Order)
				st.stable = max(st.stable, base)
				st.nextOrder = max(st.nextOrder, base)
				fresh := learned[:0]
				for _, a := range learned {
					if _, known := st.index[a.key]; !known && st.recordLocked(a.key, a.ord) {
						fresh = append(fresh, a)
					}
				}
				stable := st.stable
				st.mu.Unlock()
				for _, a := range fresh {
					to.announce(fw, a.key, m.Server, a.ord, stable)
				}
			}
		})

	b.On(event.ReplyFromServer, "TotalOrder.handleReply", PrioReplyBookkeep,
		func(o *event.Occurrence) {
			st := to.st
			st.mu.Lock()
			st.nextEntry++
			st.pruneLocked()
			s := st.entries.peek(st.nextEntry)
			held := s != nil && s.held
			var key msg.CallKey
			if held {
				s.held = false
				key = s.key
			}
			st.mu.Unlock()
			if held {
				fw.ForwardUp(key, HoldTotal)
			}
		})

	// A follower holding unordered calls periodically re-forwards them to
	// the current leader, recovering lost ORDER messages (and lost
	// leader-bound calls) without relying on client retransmission. On the
	// same tick it reports its position to the leader when it has moved
	// since its last report, so the leader can compute S. The re-arm goes
	// through the binding, so the chain ends at Detach.
	var nudge event.Handler
	nudge = func(*event.Occurrence) {
		st := to.st
		st.mu.Lock()
		resend := st.waitingLocked()
		var groups []msg.Group
		pos := st.nextEntry
		if pos > st.reported {
			st.reported = pos
			groups = st.groups
		}
		st.mu.Unlock()
		for _, m := range resend {
			leader := fw.totalLeader(m.Server)
			if leader != 0 && leader != fw.Self() {
				fw.Net().Push(leader, m)
			}
		}
		for _, g := range groups {
			if leader := fw.totalLeader(g); leader != 0 && leader != fw.Self() {
				fw.Net().Push(leader, &msg.NetMsg{
					Type:   msg.OpOrderInfo,
					Server: g,
					Sender: fw.Self(),
					Inc:    fw.Inc(),
					Order:  pos,
				})
			}
		}
		b.After("TotalOrder.nudge", nudgeInterval, nudge)
	}
	b.After("TotalOrder.nudge", nudgeInterval, nudge)

	// Leader takeover with the agreement phase the paper omits (see the
	// type comment): the new leader first queries survivors for their
	// assignments, then — after AgreementDelay — assigns fresh numbers to
	// whatever is still unordered.
	b.On(event.MembershipChange, "TotalOrder.leaderChange", event.DefaultPriority,
		func(o *event.Occurrence) {
			c := o.Arg.(member.Change)
			if c.Kind != member.Failure {
				return
			}
			// nextOrder already lies above every assignment this member
			// has recorded; the agreement round raises it above the
			// survivors' as well.
			st := to.st
			st.mu.Lock()
			groups := st.groups
			st.mu.Unlock()

			var leading []msg.Group
			for _, g := range groups {
				if g.Contains(c.Who) && fw.totalLeader(g) == fw.Self() {
					leading = append(leading, g)
				}
			}
			if len(leading) == 0 {
				return
			}

			// Agreement round: collect the survivors' order tables before
			// assigning anything new.
			st.mu.Lock()
			st.syncing = true
			st.mu.Unlock()
			for _, g := range leading {
				// Our own table needs no query: ask the others only.
				fw.MulticastOthers(g, &msg.NetMsg{
					Type:   msg.OpOrderQuery,
					Server: g,
					Sender: fw.Self(),
					Inc:    fw.Inc(),
				})
			}
			b.After("TotalOrder.agreementDone", agreementDelay,
				func(*event.Occurrence) {
					st := to.st
					st.mu.Lock()
					st.syncing = false
					pending := st.waitingLocked()
					st.mu.Unlock()
					for _, g := range leading {
						for _, m := range pending {
							if m.Server.Equal(g) {
								to.assign(fw, m.Key(), g)
							}
						}
					}
				})
		})

	return b.Err()
}

// Detach implements MicroProtocol.
func (to *TotalOrder) Detach(fw *Framework) {
	to.b.Detach()
	fw.ClearHold(HoldTotal)
}
