package core

import (
	"sync"
	"time"

	"mrpc/internal/event"
	"mrpc/internal/member"
	"mrpc/internal/msg"
	"mrpc/internal/stub"
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
type TotalOrder struct {
	// NudgeInterval is how often a follower re-forwards calls that are
	// still waiting for a sequence number to the current leader (default
	// 20ms). The paper relies on client retransmissions to trigger this
	// forwarding; with receipt-acknowledged reliable communication (D11)
	// those stop, so order-message loss is recovered by the group itself.
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
	mu        sync.Mutex
	oldOrders map[msg.CallKey]int64       // assigned sequence numbers seen
	waiting   map[msg.CallKey]*msg.NetMsg // full call, for re-forwarding
	ready     map[int64]msg.CallKey
	nextOrder int64       // leader: next number to assign
	nextEntry int64       // all: next number allowed to execute
	groups    []msg.Group // groups observed, for leader takeover; append-only
	syncing   bool        // new leader collecting ORDER_INFO; defer assignments
}

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

// encodeOrders serializes a (key -> order) table for ORDER_INFO.
func encodeOrders(orders map[msg.CallKey]int64) []byte {
	w := stub.NewWriter(16 * len(orders))
	w.PutUint32(uint32(len(orders)))
	for k, ord := range orders {
		w.PutUint32(uint32(k.Client))
		w.PutInt64(int64(k.ID))
		w.PutInt64(ord)
	}
	return w.Bytes()
}

// decodeOrders parses an ORDER_INFO payload.
func decodeOrders(data []byte) map[msg.CallKey]int64 {
	r := stub.NewReader(data)
	n := int(r.Uint32())
	out := make(map[msg.CallKey]int64, n)
	for i := 0; i < n; i++ {
		client := msg.ProcID(r.Uint32())
		id := msg.CallID(r.Int64())
		ord := r.Int64()
		if r.Err() != nil {
			return out
		}
		out[msg.CallKey{Client: client, ID: id}] = ord
	}
	return out
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
	ord, ok := st.oldOrders[key]
	if !ok {
		ord = st.nextOrder
		st.oldOrders[key] = ord
		st.nextOrder++
	}
	st.mu.Unlock()
	to.announce(fw, key, group, ord)
}

// announce makes an assignment known to the group: the ORDER goes to the
// other members along the configured dissemination (a tree keeps the
// leader's egress at its fanout), and this member applies it in place
// rather than receiving its own ORDER back through the network (D4). The
// send comes first so the followers are not kept waiting while a released
// call executes here.
func (to *TotalOrder) announce(fw *Framework, key msg.CallKey, group msg.Group, ord int64) {
	fw.MulticastOthers(group, &msg.NetMsg{
		Type:   msg.OpOrder,
		ID:     key.ID,
		Client: key.Client,
		Server: group,
		Sender: fw.Self(),
		Inc:    fw.Inc(),
		Order:  ord,
	})
	to.applyOrder(fw, key, ord)
}

// applyOrder records an assignment and releases/drops a held call
// accordingly (the body of the paper's ORDER handling).
func (to *TotalOrder) applyOrder(fw *Framework, key msg.CallKey, order int64) {
	st := to.st
	st.mu.Lock()
	if st.nextOrder < order+1 {
		st.nextOrder = order + 1
	}
	if _, ok := st.oldOrders[key]; !ok {
		st.oldOrders[key] = order
	}
	if _, held := st.waiting[key]; !held {
		st.mu.Unlock()
		return
	}
	delete(st.waiting, key)
	switch {
	case order == st.nextEntry:
		st.mu.Unlock()
		fw.ForwardUp(key, HoldTotal)
	case order < st.nextEntry:
		st.mu.Unlock()
		fw.DropServerCall(key)
	default:
		st.ready[order] = key
		st.mu.Unlock()
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
	ord, ok := st.oldOrders[key]
	if !ok {
		st.waiting[key] = m
		st.mu.Unlock()
		return
	}
	switch {
	case ord < st.nextEntry:
		st.mu.Unlock()
		fw.DropServerCall(key)
	case ord == st.nextEntry:
		st.mu.Unlock()
		fw.ForwardUp(key, HoldTotal)
	default:
		st.ready[ord] = key
		st.mu.Unlock()
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
		oldOrders: make(map[msg.CallKey]int64),
		waiting:   make(map[msg.CallKey]*msg.NetMsg),
		ready:     make(map[int64]msg.CallKey),
		nextOrder: 1,
		nextEntry: 1,
	}

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

	// The leader assigns sequence numbers as soon as a Call arrives
	// (before any other processing); followers holding an unordered call
	// nudge the leader when the client retransmits.
	b.On(event.MsgFromNetwork, "TotalOrder.assignOrder", PrioAssignOrder,
		func(o *event.Occurrence) {
			m := o.Arg.(*NetEvent).Msg
			if m.Type != msg.OpCall {
				return
			}
			key := m.Key()
			st := to.st
			st.mu.Lock()
			st.observeLocked(m.Server)
			_, known := st.oldOrders[key]
			_, isWaiting := st.waiting[key]
			syncing := st.syncing
			st.mu.Unlock()

			// A duplicate of a call that executed before this instance
			// attached (a pre-reconfiguration call) must not be sequenced:
			// no reply will ever advance past its slot, which would stall
			// the whole entry sequence. Known or waiting keys pass — those
			// are live calls (re-announcing a known order is the lost-ORDER
			// recovery path; Unique marks held calls as seen long before
			// they execute, so "seen" alone doesn't mean executed).
			if !known && !isWaiting && fw.AlreadyExecuted(key) {
				return
			}

			if fw.totalLeader(m.Server) == fw.Self() {
				if !syncing {
					to.assign(fw, key, m.Server)
				}
				// While syncing, assignment is deferred; the follower
				// nudge timers re-deliver the call once the agreement
				// round is over.
			} else if isWaiting {
				fw.Net().Push(fw.totalLeader(m.Server), m)
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
				key := m.Key()
				st.mu.Lock()
				ord, ok := st.oldOrders[key]
				if !ok {
					st.waiting[key] = m
					st.mu.Unlock()
					o.OnCancel(forgetWaiting)
					return
				}
				switch {
				case ord < st.nextEntry:
					st.mu.Unlock()
					o.Cancel()
				case ord == st.nextEntry:
					st.mu.Unlock()
					fw.ForwardUp(key, HoldTotal)
				default:
					st.ready[ord] = key
					st.mu.Unlock()
				}

			case msg.OpOrder:
				to.applyOrder(fw, m.Key(), m.Order)

			case msg.OpOrderQuery:
				// A new leader is collecting assignments: report ours.
				st.mu.Lock()
				payload := encodeOrders(st.oldOrders)
				st.mu.Unlock()
				fw.Net().Push(m.Sender, &msg.NetMsg{
					Type:   msg.OpOrderInfo,
					Server: m.Server,
					Sender: fw.Self(),
					Inc:    fw.Inc(),
					Args:   payload,
				})

			case msg.OpOrderInfo:
				// Merge a member's assignments; re-announce anything we
				// learned so every member converges on the merged table.
				learned := decodeOrders(m.Args)
				st.mu.Lock()
				for k, ord := range learned {
					if st.nextOrder < ord+1 {
						st.nextOrder = ord + 1
					}
					if _, ok := st.oldOrders[k]; ok {
						delete(learned, k)
						continue
					}
					st.oldOrders[k] = ord
				}
				st.mu.Unlock()
				for k, ord := range learned {
					to.announce(fw, k, m.Server, ord)
				}
			}
		})

	b.On(event.ReplyFromServer, "TotalOrder.handleReply", PrioReplyBookkeep,
		func(o *event.Occurrence) {
			st := to.st
			st.mu.Lock()
			st.nextEntry++
			key, ok := st.ready[st.nextEntry]
			if ok {
				delete(st.ready, st.nextEntry)
			}
			st.mu.Unlock()
			if ok {
				fw.ForwardUp(key, HoldTotal)
			}
		})

	// A follower holding unordered calls periodically re-forwards them to
	// the current leader, recovering lost ORDER messages (and lost
	// leader-bound calls) without relying on client retransmission. The
	// re-arm goes through the binding, so the chain ends at Detach.
	var nudge event.Handler
	nudge = func(*event.Occurrence) {
		st := to.st
		st.mu.Lock()
		var resend []*msg.NetMsg
		for _, m := range st.waiting {
			resend = append(resend, m)
		}
		st.mu.Unlock()
		for _, m := range resend {
			leader := fw.totalLeader(m.Server)
			if leader != 0 && leader != fw.Self() {
				fw.Net().Push(leader, m)
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
			st := to.st
			st.mu.Lock()
			groups := st.groups
			maxAssigned := int64(0)
			for _, ord := range st.oldOrders {
				if ord > maxAssigned {
					maxAssigned = ord
				}
			}
			if st.nextOrder <= maxAssigned {
				st.nextOrder = maxAssigned + 1
			}
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
					type pend struct {
						key msg.CallKey
						grp msg.Group
					}
					var pending []pend
					for k, m := range st.waiting {
						pending = append(pending, pend{key: k, grp: m.Server})
					}
					st.mu.Unlock()
					for _, g := range leading {
						for _, p := range pending {
							if p.grp.Equal(g) {
								to.assign(fw, p.key, g)
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
