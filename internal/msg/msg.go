// Package msg defines the message and identifier types exchanged between
// the user protocol, the gRPC composite protocol, and the underlying
// communication substrate, mirroring the Net_Msgtype / User_Msgtype
// definitions in §4.2 of Hiltunen & Schlichting (TR 94-28).
//
// One deliberate deviation from the paper (D1 in DESIGN.md): call
// identifiers are client-local, so every server-side table is keyed by the
// (client, id) pair. NetMsg therefore carries the originating client
// explicitly, which also lets a message be forwarded (e.g. to the total
// order leader) without losing the identity of the caller.
package msg

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// ProcID identifies a process (site). Zero is not a valid process.
type ProcID int32

// OpID identifies a remote operation registered with the server stub.
type OpID uint32

// CallID is a client-local call identifier; (client, CallID) is globally
// unique within an incarnation sequence.
type CallID int64

// Incarnation numbers client lifetimes across crashes: a recovered client
// uses a strictly larger incarnation, which the orphan-handling
// micro-protocols use to partition calls into generations.
type Incarnation int32

// CallKey is the global identity of a call (deviation D1).
type CallKey struct {
	Client ProcID
	ID     CallID
}

// String renders the key as client:id.
func (k CallKey) String() string { return fmt.Sprintf("%d:%d", k.Client, k.ID) }

// Group identifies a server group by its member processes. The paper treats
// group_id as opaque; here the membership is carried explicitly so the
// substrate can multicast and Total Order can compute the leader.
type Group []ProcID

// NewGroup returns a normalized (sorted, deduplicated) group.
func NewGroup(members ...ProcID) Group {
	g := make(Group, 0, len(members))
	seen := make(map[ProcID]bool, len(members))
	for _, m := range members {
		if !seen[m] {
			seen[m] = true
			g = append(g, m)
		}
	}
	sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
	return g
}

// Contains reports whether p is a member of the group.
func (g Group) Contains(p ProcID) bool {
	for _, m := range g {
		if m == p {
			return true
		}
	}
	return false
}

// Leader returns the member with the largest identifier, excluding any
// members in down — the paper's leader rule for Total Order ("the server
// with the largest unique identifier of all non-failed servers"). It
// returns 0 if no member is up.
func (g Group) Leader(down map[ProcID]bool) ProcID {
	var best ProcID
	for _, m := range g {
		if down[m] {
			continue
		}
		if m > best {
			best = m
		}
	}
	return best
}

// Clone returns an independent copy of the group.
func (g Group) Clone() Group {
	out := make(Group, len(g))
	copy(out, g)
	return out
}

// Equal reports whether two normalized groups have identical membership.
func (g Group) Equal(o Group) bool {
	if len(g) != len(o) {
		return false
	}
	for i := range g {
		if g[i] != o[i] {
			return false
		}
	}
	return true
}

// NetOp is the network message type (Net_Optype in the paper, plus a
// heartbeat type used by the membership substrate).
type NetOp uint8

// Network message types. CALL/REPLY/ACK/ORDER are the paper's
// Net_Optype; HEARTBEAT carries the membership detector; PROBE/PROBE_ACK
// implement the paper's second orphan-detection option (periodically
// probing the client, §4.4.7).
const (
	OpCall NetOp = iota + 1
	OpReply
	// OpAck is the paper's per-reply ACK (client -> server). Nothing sends
	// it any more: replies are acknowledged cumulatively by the low-water
	// mark in a CALL's AckID (D20). The value stays so the types after it
	// keep their wire numbers.
	OpAck
	OpOrder
	OpHeartbeat
	OpProbe
	OpProbeAck
	OpCallAck // acknowledges receipt of a Call (server -> client, Reliable Communication)

	// OpOrderQuery and OpOrderInfo implement the leader-change agreement
	// phase the paper omits from Total Order (§4.4.6): a new leader asks
	// the surviving members for the assignments they know, and they reply
	// with their order tables serialized in Args.
	OpOrderQuery
	OpOrderInfo

	// OpBatch is a frame carrying several coalesced messages to one
	// destination (deviation D16): the flush queue amortizes framing and
	// network admission across the batch. Batch frames are built only by
	// NewBatch (mrpclint: batch-freeze) and never nest.
	OpBatch

	// OpRelayAck aggregates receipt acknowledgements up a dissemination
	// tree (D17): Args carries the ProcIDs of the members covered (encoded
	// by AppendProcIDs), AckID the call being acknowledged, Client the
	// call's originating client. Interior nodes merge their children's
	// covers with their own before forwarding toward the origin, so the
	// origin's Reliable Communication settles a whole subtree per message.
	OpRelayAck
)

var netOpNames = [...]string{"", "CALL", "REPLY", "ACK", "ORDER", "HEARTBEAT", "PROBE", "PROBE_ACK", "CALL_ACK", "ORDER_QUERY", "ORDER_INFO", "BATCH", "RELAY_ACK"}

// String returns the paper's name for the message type.
func (o NetOp) String() string {
	if int(o) < len(netOpNames) && o > 0 {
		return netOpNames[o]
	}
	return fmt.Sprintf("NETOP(%d)", uint8(o))
}

// NetMsg is the message exchanged between gRPC instances over the
// communication substrate (Net_Msgtype).
//
// A message handed to the transport is frozen (Freeze): every recipient —
// including the sender's own retained references and duplicate deliveries —
// shares the same read-only body instead of receiving a deep clone
// (deviation D13 in DESIGN.md). Handlers outside internal/msg and
// internal/netsim must treat a NetMsg as immutable; mrpclint's
// msg-immutability rule enforces this statically. Code that genuinely needs
// a private copy takes Mutable (clone-on-write) or Clone.
type NetMsg struct {
	Type   NetOp
	ID     CallID
	Client ProcID // originating client of the call (deviation D1)
	Op     OpID
	Args   []byte
	Server Group       // identity of the server group
	Sender ProcID      // sender of this message
	Inc    Incarnation // sender's incarnation number (clients)
	AckID  CallID      // CALL_ACK/RELAY_ACK: the call acknowledged; CALL: the sender's low-water mark — it has settled every lower id of the mark's incarnation (D20)
	Order  int64       // total order sequence number (ORDER)
	VC     VClock      // causal timestamp (Causal Order extension)
	Relay  uint8       // dissemination-tree fanout k; 0 = flat (D17)

	// Batch holds the coalesced sub-messages of an OpBatch frame, in send
	// order. Set only by NewBatch (and the codec on decode); the frame and
	// every element are frozen before they can be shared.
	Batch []*NetMsg

	// frozen marks the message shared and immutable. Accessed atomically:
	// Freeze happens-before every share, but concurrent Frozen reads from
	// delivery goroutines must not race the flag itself.
	frozen uint32

	// wire holds the exact encoded frame this message was decoded from
	// (DecodeShared only). A relay that forwards the message re-uses these
	// immutable bytes instead of re-encoding — the dissemination tree's
	// zero-re-encode hop (D17). Never set on a mutable message: Clone (and
	// hence Mutable) drops it, since a modified copy would go stale.
	wire []byte
}

// Key returns the global call key the message refers to.
func (m *NetMsg) Key() CallKey { return CallKey{Client: m.Client, ID: m.ID} }

// Wire returns the encoded frame m was decoded from, or nil when m was
// built locally. The bytes are immutable and shared (D13): a transport may
// forward them verbatim but must never write into them.
func (m *NetMsg) Wire() []byte { return m.wire }

// SetRelay stamps the dissemination-tree fanout on a message about to be
// multicast in tree mode (D17). Only the tree's origin stamps; relays
// forward the frame untouched. Stamping a frozen message would mutate
// shared state, so it panics — the disseminator stamps before the
// transport freezes.
func (m *NetMsg) SetRelay(k int) {
	if m.Frozen() {
		panic("msg: SetRelay on a frozen message")
	}
	m.Relay = uint8(k)
}

// Freeze marks m immutable. The transport freezes every message it accepts
// before sharing it across destinations; from then on all fields are
// read-only.
func (m *NetMsg) Freeze() { atomic.StoreUint32(&m.frozen, 1) }

// Frozen reports whether m has been frozen (is potentially shared).
func (m *NetMsg) Frozen() bool { return atomic.LoadUint32(&m.frozen) == 1 }

// Mutable returns a message that is safe to modify: m itself when it has
// never been frozen, otherwise a deep unfrozen copy (clone-on-write).
func (m *NetMsg) Mutable() *NetMsg {
	if m.Frozen() {
		return m.Clone()
	}
	return m
}

// Clone returns a deep, unfrozen copy with an independent lifetime. The
// elements of a batch frame stay shared (and frozen): a batch is a routing
// envelope, and its sub-messages are immutable by construction.
func (m *NetMsg) Clone() *NetMsg {
	c := *m
	c.frozen = 0
	c.wire = nil // a copy may be modified; retained bytes would go stale
	c.Server = m.Server.Clone()
	c.VC = m.VC.Clone()
	if m.Args != nil {
		c.Args = append([]byte(nil), m.Args...)
	}
	if m.Batch != nil {
		c.Batch = append([]*NetMsg(nil), m.Batch...)
	}
	return &c
}

// NewBatch builds an OpBatch frame coalescing subs (in order) for one
// destination. It freezes every sub-message and the frame itself, so the
// result is immutable from birth — the only state in which a batch may be
// handed to the transport (mrpclint: batch-freeze). Batches do not nest,
// and a batch of one message is legal but pointless; callers should send
// singletons directly.
func NewBatch(sender ProcID, subs []*NetMsg) *NetMsg {
	for _, s := range subs {
		if s.Type == OpBatch {
			panic("msg: batch frames do not nest")
		}
		s.Freeze()
	}
	b := &NetMsg{Type: OpBatch, Sender: sender, Batch: subs}
	b.Freeze()
	return b
}

// String renders a compact human-readable form for traces.
func (m *NetMsg) String() string {
	return fmt.Sprintf("%s key=%s op=%d from=%d inc=%d ack=%d ord=%d |args|=%d",
		m.Type, m.Key(), m.Op, m.Sender, m.Inc, m.AckID, m.Order, len(m.Args))
}

// UserOp is the message type between the user protocol and gRPC
// (User_Optype).
type UserOp uint8

// User message types: Call issues an RPC, Request retrieves the result of a
// previously issued asynchronous call.
const (
	UserCall UserOp = iota + 1
	UserRequest
)

// Status is the return status of a call (Status_type).
type Status uint8

// Call statuses. A call is WAITING until accepted (OK) or timed out;
// ABORTED marks calls released when the local composite shuts down or the
// site crashes (not in the paper, which leaves local-crash cleanup implicit).
const (
	StatusWaiting Status = iota + 1
	StatusOK
	StatusTimeout
	StatusAborted
)

var statusNames = [...]string{"", "WAITING", "OK", "TIMEOUT", "ABORTED"}

// String returns the paper's name for the status.
func (s Status) String() string {
	if int(s) < len(statusNames) && s > 0 {
		return statusNames[s]
	}
	return fmt.Sprintf("STATUS(%d)", uint8(s))
}

// UserMsg is the message exchanged between the user protocol and gRPC
// (User_Msgtype). For a synchronous Call the composite fills Args and Status
// in place before returning to the caller.
type UserMsg struct {
	Type   UserOp
	ID     CallID
	Op     OpID
	Args   []byte
	Server Group
	Status Status

	// Wait is set by the call-semantics micro-protocol during dispatch when
	// the caller must block for the result: the framework then parks on the
	// call's semaphore and collects Args/Status/Op after the dispatch
	// handlers return, outside the reconfiguration barrier, so a parked
	// caller never blocks a swap. A flag instead of a continuation keeps the
	// dispatch path closure-free (the collect logic lives in the framework).
	Wait bool
}
