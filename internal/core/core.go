// Package core implements the paper's primary contribution: the gRPC
// composite protocol — an event-driven framework holding the shared call
// tables, plus the thirteen micro-protocols that each realize one semantic
// property of (group) RPC and are configured together into a service
// (Hiltunen & Schlichting, TR 94-28, §3–§5).
//
// A Framework instance is one site's half of the composite protocol. It is
// deliberately symmetric: the same configured composite runs at clients and
// servers, with the client-side tables (pRPC) and server-side tables (sRPC)
// simply remaining empty on sites that play only one role — exactly the
// structure of the pseudocode, where each micro-protocol contains both its
// client- and server-side handlers.
package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"mrpc/internal/event"
	"mrpc/internal/member"
	"mrpc/internal/msg"
	"mrpc/internal/proc"
	"mrpc/internal/sem"
	"mrpc/internal/trace"
)

// HoldIndex names a slot of the HOLD array (ready_index in the paper):
// a property that must be satisfied before a call may be passed up to the
// server. RPC Main always holds; the ordering micro-protocols add theirs.
type HoldIndex int

// HOLD array slots.
const (
	HoldMain HoldIndex = iota
	HoldFIFO
	HoldTotal
	HoldCausal
	numHold
)

// Handler priorities for MSG_FROM_NETWORK, ascending = earlier. The values
// implement the ordering discussed in DESIGN.md §4 (including deviations
// D2, D3 and D20 relative to the paper's numbers).
const (
	PrioAssignOrder    = 5   // Total Order: leader assigns sequence numbers
	PrioFloor          = 7   // Unique Execution: drop settled calls below the client's floor (D20)
	PrioReliable       = 10  // Reliable Communication: ack bookkeeping (first, as in the paper)
	PrioOrphan         = 15  // Interference Avoidance / Terminate Orphan
	PrioUnique         = 20  // Unique Execution: drop duplicates
	PrioMain           = 30  // RPC Main: table maintenance, forwarding
	PrioAcceptDedupe   = 35  // Acceptance: duplicate-reply filtering (D2)
	PrioCollation      = 40  // Collation: fold the reply into the result
	PrioAcceptComplete = 45  // Acceptance: completion + waking the caller (D2)
	PrioOrder          = 100 // FIFO / Total Order: delivery ordering
)

// Handler priorities for CALL_FROM_USER and REPLY_FROM_SERVER. These two
// events have short chains: RPC Main records and sends a call before the
// call-semantics micro-protocols (DefaultPriority) block on it, and the
// per-protocol reply bookkeeping runs before Atomic Execution's
// checkpoint accounting.
const (
	PrioCallMain      = 1 // RPC Main: record the call, announce NEW_RPC_CALL, multicast
	PrioReplyBookkeep = 1 // ordering/unique/orphan protocols: per-reply bookkeeping
	PrioReplyAtomic   = 2 // Atomic Execution: runs after the bookkeeping handlers
)

// Transport is the underlying communication protocol ("Net" in the paper):
// unreliable, unordered point-to-point and multicast sends.
// netsim.Endpoint implements it.
type Transport interface {
	Push(to msg.ProcID, m *msg.NetMsg)
	Multicast(group msg.Group, m *msg.NetMsg)
}

// Server is the user protocol above gRPC on the server side. Pop executes
// the remote procedure (the x-kernel Server.pop): it receives the thread
// token for cooperative kill (may be consulted for cancellation), the
// operation id, and the marshalled arguments, and returns the marshalled
// result. Pop is called synchronously on the goroutine driving the call.
type Server interface {
	Pop(th *proc.Thread, op msg.OpID, args []byte) []byte
}

// ServerFunc adapts a function to the Server interface.
type ServerFunc func(th *proc.Thread, op msg.OpID, args []byte) []byte

// Pop implements Server.
func (f ServerFunc) Pop(th *proc.Thread, op msg.OpID, args []byte) []byte {
	return f(th, op, args)
}

// PendingEntry tracks one server's progress on one client call
// (waiting_list entries: acked by Reliable Communication, done by
// Acceptance).
type PendingEntry struct {
	Acked bool
	Done  bool
}

// ClientRecord is a pending remote procedure call at the client
// (Client_Record).
type ClientRecord struct {
	ID       msg.CallID
	Op       msg.OpID
	CallArgs []byte // input parameters, as sent (and resent) to the group
	Args     []byte // collated output parameters
	Server   msg.Group
	Sem      *sem.Sem // the client thread waits here
	NRes     int      // number of responses still required
	// Pending tracks each member's progress in lockstep with Server:
	// Pending[i] is Server[i]'s entry. A slice keyed by group index
	// replaces the paper's waiting_list map — groups are small enough that
	// the linear scan beats hashing, and the backing array recycles with
	// the record (D16).
	Pending []PendingEntry
	Status  msg.Status
	VC      msg.VClock // causal timestamp of the call (Causal Order only)
}

// PendingFor returns the pending entry for member p, or nil when p is not
// in the call's group. The pointer aliases the record's Pending slice: use
// it only inside the scoped callback (or under Take* ownership) that
// yielded the record.
func (r *ClientRecord) PendingFor(p msg.ProcID) *PendingEntry {
	for i, q := range r.Server {
		if q == p {
			return &r.Pending[i]
		}
	}
	return nil
}

// ServerRecord is a pending client call at a server (Server_Record).
type ServerRecord struct {
	Key    msg.CallKey
	Op     msg.OpID
	Args   []byte
	Server msg.Group
	Client msg.ProcID
	Inc    msg.Incarnation
	Thread *proc.Thread // the kill token of the call's generation
	// Msg is the (frozen) network message that admitted the call. Retained
	// so a reconfiguration swap can re-home a call still held by a detached
	// ordering protocol (Sequencer.Adopt needs the original message).
	Msg *msg.NetMsg

	hold      [numHold]bool
	executing bool
}

// NetEvent is the argument of MSG_FROM_NETWORK occurrences: the delivered
// message plus, for Call messages, the kill token of the caller's
// generation, under which the procedure will execute.
type NetEvent struct {
	Msg    *msg.NetMsg
	Thread *proc.Thread
}

// --- steady-state object pools (D16) --------------------------------------
//
// The call path recycles its fixed-shape envelopes and records through
// sync.Pools, so a steady-state call allocates only what genuinely escapes
// it: the wire messages and the group snapshot they reference. Recycling
// leans on ownership rules enforced elsewhere — Take* transfers sole
// ownership of a record and the table-escape lint keeps scoped pointers
// from leaking — so the owner may scrub and repool. Slices that escape
// into frozen wire messages (a record's Server snapshot, a relEntry's
// group) are dropped at release, never reused: a recycled backing array
// would mutate a frozen message.

var (
	clientRecPool = newPool(func() any { return new(ClientRecord) })
	serverRecPool = newPool(func() any { return new(ServerRecord) })
	netEventPool  = newPool(func() any { return new(NetEvent) })
	userMsgPool   = newPool(func() any { return new(msg.UserMsg) })
	callKeyPool   = newPool(func() any { return new(msg.CallKey) })
	callIDPool    = newPool(func() any { return new(msg.CallID) })
)

// releaseClientRec scrubs and recycles a collected call record. The
// semaphore is kept only when certainly quiescent: Close can race a stray
// V onto an already-completed record, and such a semaphore is dropped
// rather than poisoning a future call with a phantom unit.
func releaseClientRec(rec *ClientRecord) {
	s := rec.Sem
	if s != nil && (s.Count() != 0 || s.Waiters() != 0) {
		s = nil
	}
	*rec = ClientRecord{Sem: s, Pending: rec.Pending[:0]}
	clientRecPool.Put(rec)
}

// getServerRec returns a scrubbed server record ready to fill.
func getServerRec() *ServerRecord { return serverRecPool.Get().(*ServerRecord) }

// releaseServerRec scrubs and recycles a server record the caller owns
// (obtained via TakeServer).
func releaseServerRec(rec *ServerRecord) {
	*rec = ServerRecord{}
	serverRecPool.Put(rec)
}

// PutUserMsg recycles a UserMsg obtained from Call, CallAdmitted or
// Request once the caller has copied out the fields it needs. Optional —
// an unreturned message is simply garbage collected.
//
//lint:owns um
func PutUserMsg(um *msg.UserMsg) {
	*um = msg.UserMsg{}
	userMsgPool.Put(um)
}

func getUserMsg() *msg.UserMsg { return userMsgPool.Get().(*msg.UserMsg) }

// Options configures a Framework.
type Options struct {
	Site       *proc.Site // identity + incarnation source (required)
	Bus        *event.Bus // event framework (required)
	Net        Transport  // communication substrate (required)
	Server     Server     // user protocol; nil on pure clients
	Membership member.Service
	// Trace, when non-nil, receives structured trace events at the
	// semantically meaningful points of every call's lifetime (issue,
	// completion, execution, reply, duplicate suppression, orphan kills).
	// The conformance harness replays these through its property oracles;
	// a nil sink costs one pointer compare per site.
	Trace trace.Sink
	// FlushSize caps how many outbound messages one batch frame of the
	// flush queue coalesces (deviation D16); 0 selects the default.
	FlushSize int
	// TreeFanout selects the dissemination mode (D17): 0 or 1 sends every
	// group multicast flat; k ≥ 2 disseminates over a deterministic k-ary
	// relay tree, dropping sender egress from O(g) to O(k).
	TreeFanout int
}

// Framework is the composite-protocol framework: shared data structures,
// the HOLD array, and the control-flow plumbing shared by all
// micro-protocols.
//
// Shared state falls into three regimes:
//
//   - the call tables (clients/servers), sharded and reached only through
//     the scoped API in table.go;
//   - configuration (hold, causal, serialMode), written by micro-protocol
//     Attach/Detach calls either before Start or under the reconfiguration
//     barrier (Composite.Swap holds dispatchMu exclusively while every
//     dispatch path holds it shared), so runtime reads need no further
//     synchronization;
//   - runtime scalars with their own discipline (inc is an atomic; the
//     low-water mark, the causal vector and the serial drain queue keep
//     dedicated mutexes because they are genuinely mutated on the hot path).
type Framework struct {
	site       *proc.Site
	bus        *event.Bus
	net        Transport // the flush queue wrapping the real transport (D16)
	flusher    *Flusher
	dissem     *Disseminator // dissemination layer under the flush queue (D17)
	server     Server
	membership member.Service
	threads    *proc.Threads // one kill token per (client, incarnation)
	sink       trace.Sink

	// Call tables (pRPC and sRPC, §4.2), sharded; see table.go.
	clients clientTable
	servers serverTable
	// lw issues call ids and tracks the client low-water mark stamped on
	// every outgoing call (D20; see window.go).
	lw lowWater

	hold [numHold]bool // HOLD array: properties every call must satisfy

	// started flips when configuration freezes (Start); the configuration
	// mutators refuse to run after it unless the reconfiguration barrier is
	// held (reconfiguring, set by Composite.Swap under dispatchMu).
	started       atomic.Bool
	reconfiguring atomic.Bool

	// dispatchMu is the reconfiguration barrier: every dispatch entry point
	// (network delivery, user calls, timer firings, membership changes,
	// recovery) holds it shared for the duration of the trigger, and
	// Composite.Swap holds it exclusively while detaching and attaching
	// micro-protocols — so a swap observes a composite with no handler
	// mid-flight.
	dispatchMu sync.RWMutex

	// admit is the admission gate: Reconfigure closes it to stop admitting
	// NEW_RPC_CALL while draining. A caller holds it shared from gate entry
	// to the end of its CALL_FROM_USER dispatch; CloseAdmission holds it
	// exclusively until OpenAdmission, so taking it waits out stragglers
	// that passed the gate but have not yet created their call record.
	admit sync.RWMutex

	// executedQuery, installed by Unique Execution, reports whether a call
	// key has already been executed here; a freshly attached ordering
	// protocol consults it to avoid sequencing duplicates of pre-swap calls.
	executedQuery func(msg.CallKey) bool

	// Causal Order state (extension; see causal.go). vc is the CBCAST
	// vector: this process's own entry counts calls it has issued, other
	// entries count calls delivered (executed) from those clients.
	causal bool
	vcMu   sync.Mutex
	vc     msg.VClock

	// Serial Execution state (deviation D3): when serialMode is set,
	// eligible calls execute one at a time through a drain queue rather
	// than the paper's semaphore around delivery — which, as written,
	// acquires the slot in admission order and therefore deadlocks when an
	// ordering protocol schedules an earlier-admitted call after a
	// later-admitted one.
	serialMode bool
	serialMu   sync.Mutex
	serialBusy bool
	serialQ    []msg.CallKey // pending calls are serialQ[serialHead:]
	serialHead int

	// group is the last group snapshot a client record took; the next call
	// to the same members reuses it instead of cloning the caller's slice.
	group atomic.Pointer[msg.Group]

	// inc caches the current incarnation (updated by RPC Main's recovery
	// handler, read when stamping outgoing calls).
	inc atomic.Int32

	unsubscribe func()
	closed      bool
	cmu         sync.Mutex
}

// NewFramework constructs the framework. Micro-protocols are then attached
// via their Attach functions, after which the composite is live.
func NewFramework(opts Options) (*Framework, error) {
	if opts.Site == nil || opts.Bus == nil || opts.Net == nil {
		return nil, fmt.Errorf("core: site, bus and net are required")
	}
	ms := opts.Membership
	if ms == nil {
		ms = member.NewStatic()
	}
	fw := &Framework{
		site:       opts.Site,
		bus:        opts.Bus,
		server:     opts.Server,
		membership: ms,
		threads:    proc.NewThreads(),
		sink:       opts.Trace,
	}
	// Every sender goes through the flush queue, which sits on the
	// dissemination layer, which sits on the raw transport; Net() hands out
	// the top of the stack, so micro-protocols coalesce and disseminate
	// without knowing either exists.
	fw.dissem = newDisseminator(fw, opts.Net, opts.TreeFanout)
	fw.flusher = newFlusher(fw, fw.dissem, opts.FlushSize)
	fw.net = fw.flusher
	fw.clients.init()
	fw.servers.init()
	fw.lw.init()
	fw.inc.Store(int32(opts.Site.Inc()))
	// Timer firings must participate in the reconfiguration barrier; the
	// gate is installed before any micro-protocol can arm a timeout.
	fw.bus.SetDispatchGate(func() func() {
		fw.dispatchMu.RLock()
		return fw.dispatchMu.RUnlock
	})
	fw.unsubscribe = ms.Subscribe(func(c member.Change) {
		// Tree repair first: re-delivering the window before the protocols
		// react means a handler that retransmits sees the repaired tree.
		fw.dissem.OnMembership(c)
		fw.dispatchMu.RLock()
		defer fw.dispatchMu.RUnlock()
		fw.bus.Trigger(event.MembershipChange, c)
	})
	return fw, nil
}

// Start freezes the framework's configuration: the configuration mutators
// (SetHold, EnableSerial, EnableCausal and their Clear/Disable inverses)
// panic from here on unless the reconfiguration barrier is held, which is
// what lets the hot path read hold/causal/serialMode without locks.
// NewComposite calls it after the last Attach.
func (fw *Framework) Start() { fw.started.Store(true) }

// mustConfigure guards the configuration mutators: they may run before
// Start (initial composite assembly) or under the reconfiguration barrier
// (Composite.Swap holds dispatchMu exclusively, so no dispatch observes a
// half-configured framework), and nowhere else.
func (fw *Framework) mustConfigure(what string) {
	if fw.started.Load() && !fw.reconfiguring.Load() {
		panic("core: " + what + " on a live composite — micro-protocol configuration mutates only before Start or under the reconfiguration barrier (Composite.Swap)")
	}
}

// Self returns this site's process id.
func (fw *Framework) Self() msg.ProcID { return fw.site.ID() }

// Tracing reports whether a structured trace sink is installed; emission
// sites guard on it so the disabled path builds no event.
func (fw *Framework) Tracing() bool { return fw.sink != nil }

// Emit stamps the event with this site's identity and incarnation and
// records it. Callers guard with Tracing; a nil sink is still tolerated.
func (fw *Framework) Emit(e trace.Event) {
	if fw.sink == nil {
		return
	}
	e.Site = fw.Self()
	e.SiteInc = fw.Inc()
	fw.sink.Record(e)
}

// Bus returns the event framework.
func (fw *Framework) Bus() *event.Bus { return fw.bus }

// Net returns the communication substrate.
func (fw *Framework) Net() Transport { return fw.net }

// MulticastOthers sends m to every member of group except this node,
// through the same flush queue and dissemination as Net().Multicast: in
// tree mode the origin's egress stays at the fanout. A micro-protocol that
// applies its own message in place (Total Order's ORDER, D4) uses it
// instead of receiving that message back through the network. The group
// is passed whole, never shrunk: the disseminator sends any frame whose
// Server differs from the multicast group flat.
func (fw *Framework) MulticastOthers(group msg.Group, m *msg.NetMsg) {
	fw.flusher.MulticastOthers(group, m)
}

// Membership returns the membership service.
func (fw *Framework) Membership() member.Service { return fw.membership }

// Inc returns the incarnation number stamped on outgoing calls.
func (fw *Framework) Inc() msg.Incarnation {
	return msg.Incarnation(fw.inc.Load())
}

// SetInc updates the cached incarnation (RPC Main's recovery handler).
func (fw *Framework) SetInc(i msg.Incarnation) {
	fw.inc.Store(int32(i))
}

// SetHold marks index as a property every call must satisfy before being
// passed to the server (HOLD[index] = true at micro-protocol init).
// Configuration mutator (before Start or under the swap barrier).
func (fw *Framework) SetHold(index HoldIndex) {
	fw.mustConfigure("SetHold")
	fw.hold[index] = true
}

// ClearHold reverses SetHold when the owning micro-protocol detaches.
// Configuration mutator (before Start or under the swap barrier).
func (fw *Framework) ClearHold(index HoldIndex) {
	fw.mustConfigure("ClearHold")
	fw.hold[index] = false
}

// EnableSerial switches the framework to serial execution: eligible calls
// are executed one at a time, in eligibility order. Configuration mutator
// (before Start or under the swap barrier).
func (fw *Framework) EnableSerial() {
	fw.mustConfigure("EnableSerial")
	fw.serialMode = true
}

// DisableSerial reverses EnableSerial when Serial Execution detaches.
// Configuration mutator (before Start or under the swap barrier).
func (fw *Framework) DisableSerial() {
	fw.mustConfigure("DisableSerial")
	fw.serialMode = false
}

// SetExecutedQuery installs (or with nil, removes) Unique Execution's
// executed-call predicate; see Framework.AlreadyExecuted. Configuration
// mutator (before Start or under the swap barrier).
func (fw *Framework) SetExecutedQuery(q func(msg.CallKey) bool) {
	fw.mustConfigure("SetExecutedQuery")
	fw.executedQuery = q
}

// AlreadyExecuted reports whether the call identified by key has already
// executed at this server, according to Unique Execution's dedup tables
// (false when Unique Execution is not configured). A freshly attached
// ordering protocol uses it to recognize duplicates of calls that executed
// before the protocol attached: sequencing such a duplicate would reserve a
// slot no reply will ever release.
func (fw *Framework) AlreadyExecuted(key msg.CallKey) bool {
	return fw.executedQuery != nil && fw.executedQuery(key)
}

// --- Causal Order support (extension; see causal.go) ---------------------

// EnableCausal switches on causal timestamping: outgoing calls carry a
// vector clock and replies carry the server's delivered-vector.
// Configuration mutator (before Start or under the swap barrier).
func (fw *Framework) EnableCausal() {
	fw.mustConfigure("EnableCausal")
	fw.causal = true
	fw.vcMu.Lock()
	fw.vc = make(msg.VClock)
	fw.vcMu.Unlock()
}

// DisableCausal reverses EnableCausal when Causal Order detaches.
// Configuration mutator (before Start or under the swap barrier).
func (fw *Framework) DisableCausal() {
	fw.mustConfigure("DisableCausal")
	fw.causal = false
	fw.vcMu.Lock()
	fw.vc = nil
	fw.vcMu.Unlock()
}

// RestoreVC replaces the causal vector with a previously exported snapshot
// (Causal Order state migration). Configuration mutator.
func (fw *Framework) RestoreVC(v msg.VClock) {
	fw.mustConfigure("RestoreVC")
	fw.vcMu.Lock()
	fw.vc = v
	fw.vcMu.Unlock()
}

// CausalEnabled reports whether causal timestamping is on.
func (fw *Framework) CausalEnabled() bool { return fw.causal }

// StampOutgoingCall advances this process's own entry and returns the
// vector timestamp for a new call (CBCAST send rule).
func (fw *Framework) StampOutgoingCall() msg.VClock {
	fw.vcMu.Lock()
	defer fw.vcMu.Unlock()
	fw.vc[fw.Self()]++
	return fw.vc.Clone()
}

// MergeVC folds a received timestamp into the local vector (clients learn
// about other clients' executed calls from reply timestamps).
func (fw *Framework) MergeVC(o msg.VClock) {
	if len(o) == 0 {
		return
	}
	fw.vcMu.Lock()
	fw.vc = fw.vc.Merge(o)
	fw.vcMu.Unlock()
}

// VCSnapshot returns a copy of the local vector.
func (fw *Framework) VCSnapshot() msg.VClock {
	fw.vcMu.Lock()
	defer fw.vcMu.Unlock()
	return fw.vc.Clone()
}

// CausalDeliverable applies the CBCAST delivery condition for a call from
// client with timestamp t: t[client] is the next undelivered call of that
// client and every other dependency is already delivered.
func (fw *Framework) CausalDeliverable(client msg.ProcID, t msg.VClock) bool {
	fw.vcMu.Lock()
	defer fw.vcMu.Unlock()
	if t.Get(client) != fw.vc.Get(client)+1 {
		return false
	}
	for q, n := range t {
		if q == client {
			continue
		}
		if n > fw.vc.Get(q) {
			return false
		}
	}
	return true
}

// BumpDelivered records the delivery (execution) of one more call from
// client.
func (fw *Framework) BumpDelivered(client msg.ProcID) {
	fw.vcMu.Lock()
	fw.vc[client]++
	fw.vcMu.Unlock()
}

// ResetDelivered zeroes the delivered count for client (a recovered
// client's fresh incarnation restarts its call numbering).
func (fw *Framework) ResetDelivered(client msg.ProcID) {
	fw.vcMu.Lock()
	delete(fw.vc, client)
	fw.vcMu.Unlock()
}

// SerialEnabled reports whether serial execution is configured.
func (fw *Framework) SerialEnabled() bool { return fw.serialMode }

// --- pRPC table (client side) -------------------------------------------

// NewClientRec allocates a call id and inserts a fully initialized pending
// record for a call to group; vc is the call's causal timestamp (nil
// without Causal Order). The record is built before it becomes reachable,
// so no caller-side locking is needed.
func (fw *Framework) NewClientRec(op msg.OpID, args []byte, group msg.Group, vc msg.VClock) *ClientRecord {
	// Call ids embed the incarnation number in their upper bits (deviation
	// D9): a recovered client's fresh calls can therefore never collide
	// with its pre-crash calls in server-side tables, while ids stay dense
	// within one incarnation (which FIFO Order's id+1 arithmetic needs).
	// The paper leaves id freshness across recoveries unspecified.
	id := fw.lw.issue(fw.Inc())
	// The input args double as the initial output value, matching the
	// paper's single args field; Collation replaces them with its init
	// value before any reply arrives (deviation D7: retransmissions use
	// CallArgs so the collation accumulator never leaks onto the wire).
	rec := clientRecPool.Get().(*ClientRecord)
	s := rec.Sem
	if s == nil {
		s = sem.New(0)
	}
	pending := rec.Pending[:0]
	for range group {
		pending = append(pending, PendingEntry{})
	}
	// Snapshots are frozen (they ride in wire messages), so records share.
	snap := fw.group.Load()
	if snap == nil || !snap.Equal(group) {
		g := group.Clone()
		snap = &g
		fw.group.Store(snap)
	}
	*rec = ClientRecord{
		ID:       id,
		Op:       op,
		CallArgs: args,
		Args:     args,
		Server:   *snap,
		Sem:      s,
		Pending:  pending,
		Status:   msg.StatusWaiting,
		VC:       vc,
	}
	fw.clients.put(rec)
	if fw.Tracing() {
		fw.Emit(trace.Event{Kind: trace.KCallIssued, Client: fw.Self(), ID: id,
			Op: op, Group: rec.Server, VC: vc})
	}
	return rec
}

// TakeClient removes and returns the record for id, transferring ownership:
// the record is unreachable afterwards, so the caller may read its fields
// without further locking. The record's hold on the low-water mark goes
// with it.
func (fw *Framework) TakeClient(id msg.CallID) (*ClientRecord, bool) {
	rec, ok := fw.clients.take(id)
	if ok {
		fw.lw.release(id)
	}
	return rec, ok
}

// LowWater returns the client low-water mark W (D20): every call id this
// node issued below W is settled — its record collected and its
// transmission state retired — so a server may forget it. Stamped into the
// AckID of every outgoing CALL; zero before the first call.
func (fw *Framework) LowWater() msg.CallID { return fw.lw.load() }

// HoldLowWater adds a hold on an issued call id that is still held (by its
// client record): W stays at or below id until the matching
// ReleaseLowWater. Reliable Communication holds each call it transmits until
// its entry retires.
func (fw *Framework) HoldLowWater(id msg.CallID) { fw.lw.hold(id) }

// ReleaseLowWater drops a hold taken with HoldLowWater.
func (fw *Framework) ReleaseLowWater(id msg.CallID) { fw.lw.release(id) }

// HasClient reports whether a pending call record for id exists.
func (fw *Framework) HasClient(id msg.CallID) bool {
	return fw.clients.with(id, func(*ClientRecord) {})
}

// PendingCalls returns the number of outstanding client calls.
func (fw *Framework) PendingCalls() int { return fw.clients.len() }

// --- sRPC table (server side) ---------------------------------------------

// PutServerRec inserts rec unless a record with its key is already held,
// and reports whether the insert happened (false = duplicate). rec must be
// fully initialized: it is reachable by other goroutines on return.
//
// The table takes ownership on the true path; on the false path the caller
// still holds the only reference and typically releases it. That
// conditional handoff is declared, not inferred:
//
//lint:owns rec
func (fw *Framework) PutServerRec(rec *ServerRecord) bool {
	return fw.servers.putIfAbsent(rec)
}

// TakeServer removes and returns the record for key, transferring
// ownership (see TakeClient).
func (fw *Framework) TakeServer(key msg.CallKey) (*ServerRecord, bool) {
	return fw.servers.take(key)
}

// PendingServerCalls returns the number of calls held at this server.
func (fw *Framework) PendingServerCalls() int { return fw.servers.len() }

// DropServerCall removes a held call that an ordering or orphan
// micro-protocol has decided to discard (duplicate of an executed call,
// stale generation, ...). It reports whether a record was actually dropped
// (false when the call already completed or was dropped by someone else).
// It kills nothing: the call's token is shared with its generation, and no
// caller drops an executing call (only the orphan sweep takes those).
func (fw *Framework) DropServerCall(key msg.CallKey) bool {
	rec, ok := fw.servers.take(key)
	if !ok {
		return false
	}
	checkDrop(rec)
	releaseServerRec(rec)
	return true
}

// --- control flow ---------------------------------------------------------

// ForwardUp records that property index is satisfied for the call and, once
// every property in HOLD is satisfied, executes the procedure and sends the
// reply — the forward_up procedure exported by RPC Main (§4.4.1). With
// Serial Execution configured, eligible calls are instead queued and
// executed one at a time in eligibility order (deviation D3).
func (fw *Framework) ForwardUp(key msg.CallKey, index HoldIndex) {
	execute := false
	fw.WithServer(key, func(rec *ServerRecord) {
		rec.hold[index] = true
		execute = !rec.executing
		for i := HoldIndex(0); i < numHold; i++ {
			if fw.hold[i] && !rec.hold[i] {
				execute = false
			}
		}
		if execute {
			rec.executing = true
		}
	})
	if !execute {
		return
	}

	if !fw.serialMode {
		fw.executeCall(key)
		return
	}

	fw.serialMu.Lock()
	if fw.serialBusy {
		if fw.serialHead > 0 && len(fw.serialQ) == cap(fw.serialQ) {
			// Reclaim the executed prefix before append grows the array.
			n := copy(fw.serialQ, fw.serialQ[fw.serialHead:])
			fw.serialQ, fw.serialHead = fw.serialQ[:n], 0
		}
		fw.serialQ = append(fw.serialQ, key)
		fw.serialMu.Unlock()
		return
	}
	fw.serialBusy = true
	fw.serialMu.Unlock()

	fw.executeCall(key)
	for {
		fw.serialMu.Lock()
		if fw.serialHead == len(fw.serialQ) {
			fw.serialQ, fw.serialHead = fw.serialQ[:0], 0
			fw.serialBusy = false
			fw.serialMu.Unlock()
			return
		}
		next := fw.serialQ[fw.serialHead]
		fw.serialHead++
		fw.serialMu.Unlock()
		fw.executeCall(next)
	}
}

// executeCall runs the procedure for an eligible call and sends the reply.
func (fw *Framework) executeCall(key msg.CallKey) {
	var (
		args   []byte
		op     msg.OpID
		th     *proc.Thread
		client msg.ProcID
		server msg.Group
	)
	if !fw.WithServer(key, func(rec *ServerRecord) {
		args, op, th = rec.Args, rec.Op, rec.Thread
		client, server = rec.Client, rec.Server
	}) {
		// Dropped (orphan sweep, stale duplicate) after becoming eligible.
		return
	}

	var result []byte
	if fw.server != nil && (th == nil || !th.IsKilled()) {
		if fw.Tracing() {
			fw.Emit(trace.Event{Kind: trace.KExecBegin, Client: key.Client, ID: key.ID, Op: op})
		}
		result = fw.server.Pop(th, op, args)
		if fw.Tracing() {
			fw.Emit(trace.Event{Kind: trace.KExecEnd, Client: key.Client, ID: key.ID, Op: op})
		}
	}

	if th != nil && th.IsKilled() {
		// Terminate Orphan (or a crash) killed the computation: suppress
		// the reply.
		if r, ok := fw.TakeServer(key); ok {
			releaseServerRec(r)
		}
		if fw.Tracing() {
			fw.Emit(trace.Event{Kind: trace.KOrphanKilled, Client: key.Client, ID: key.ID})
		}
		return
	}

	fw.WithServer(key, func(rec *ServerRecord) { rec.Args = result })

	// REPLY_FROM_SERVER runs while the record is still in sRPC (Unique
	// Execution and the ordering protocols read it); then the record is
	// removed and the reply pushed — the paper's order, with its
	// read-after-delete slip fixed. The key rides in a pooled box: boxing
	// the 16-byte struct into the event argument directly would allocate
	// on every reply.
	kb := callKeyPool.Get().(*msg.CallKey)
	*kb = key
	fw.bus.Trigger(event.ReplyFromServer, kb)
	callKeyPool.Put(kb)

	// With Causal Order, the reply carries the server's delivered-vector
	// (which already includes this call): merging it at the client makes
	// subsequent calls causally follow everything executed before this
	// reply.
	var replyVC msg.VClock
	if fw.causal {
		replyVC = fw.VCSnapshot()
	}
	reply := &msg.NetMsg{
		Type:   msg.OpReply,
		ID:     key.ID,
		Client: key.Client,
		Op:     op,
		Args:   result,
		Server: server,
		Sender: fw.Self(),
		Inc:    fw.Inc(),
		VC:     replyVC,
	}
	srec, held := fw.TakeServer(key)
	if held {
		releaseServerRec(srec)
	}
	if !held || (th != nil && th.IsKilled()) {
		// The record was taken away mid-execution (an orphan sweep dropped
		// the call) or the thread was killed after the procedure returned:
		// the computation is an exterminated orphan, so its reply must not
		// escape. Without this check a kill landing between the post-Pop
		// test and the push would leak the reply.
		if fw.Tracing() {
			fw.Emit(trace.Event{Kind: trace.KOrphanKilled, Client: key.Client, ID: key.ID})
		}
		return
	}
	if fw.Tracing() {
		fw.Emit(trace.Event{Kind: trace.KReplySent, Client: key.Client, ID: key.ID, Op: op})
	}
	fw.net.Push(client, reply)
}

// --- reconfiguration machinery --------------------------------------------

// CloseAdmission stops admitting new calls: Call blocks at the admission
// gate until OpenAdmission. It returns only once every caller that had
// already passed the gate has finished its CALL_FROM_USER dispatch, so
// after CloseAdmission returns, the set of pending client calls is exactly
// what WaitingClientCalls sees — nothing is about to appear. Batch frames
// parked in the flush queue (an open pipeline racing the reconfiguration)
// are force-flushed last: their calls already have records, but the drain
// barrier needs them on the wire, not wedged in a lane. The gate stays
// closed until OpenAdmission.
func (fw *Framework) CloseAdmission() {
	fw.admit.Lock()
	fw.flusher.ForceFlush()
}

// Flush force-flushes every lane of the flush queue (partial batches
// included). Tests and the facade's drain paths use it to push parked
// traffic onto the wire without closing admission.
func (fw *Framework) Flush() { fw.flusher.ForceFlush() }

// PipelineBegin opens a pipeline hold on the flush queue: no-wait calls
// issued until PipelineEnd park per destination and go out as batch
// frames. Holds nest; a full lane (FlushSize) flushes early, and a
// drain-class reconfiguration force-flushes parked frames regardless.
func (fw *Framework) PipelineBegin() { fw.flusher.PipelineBegin() }

// PipelineEnd closes a pipeline hold and flushes everything parked once
// the last hold is gone.
func (fw *Framework) PipelineEnd() { fw.flusher.PipelineEnd() }

// SetFlushSize changes the flush queue's batch size cap (live
// reconfiguration of Config.FlushSize).
func (fw *Framework) SetFlushSize(n int) { fw.flusher.SetMax(n) }

// SetTreeFanout changes the dissemination mode (reconfiguration of
// Config.Dissemination, D17): 0/1 = flat, k ≥ 2 = k-ary relay tree.
// Dissemination swaps are drain-class, so this runs with no frame in
// flight.
func (fw *Framework) SetTreeFanout(k int) { fw.dissem.SetFanout(k) }

// OpenAdmission reopens the admission gate CloseAdmission closed, waking
// blocked callers. Each CloseAdmission is paired with exactly one
// OpenAdmission.
func (fw *Framework) OpenAdmission() { fw.admit.Unlock() }

// WaitingClientCalls returns the number of pending client calls still
// waiting for completion. Completed-but-uncollected asynchronous records do
// not count: they are inert (no retransmission, no reply expected) and
// safely survive a swap for later Collect.
func (fw *Framework) WaitingClientCalls() int {
	n := 0
	fw.EachClient(func(r *ClientRecord) {
		if r.Status == msg.StatusWaiting {
			n++
		}
	})
	return n
}

// rehomeHeldCalls re-homes every non-executing sRPC record after a swap
// changed the ordering property: ordering hold bits are reset and each call
// is offered to the new ordering protocol (seq) as if it had just arrived,
// or — with no ordering configured — released for execution. Runs under the
// swap barrier; records are processed in deterministic (client, id) order.
func (fw *Framework) rehomeHeldCalls(seq Sequencer) {
	type held struct {
		key msg.CallKey
		m   *msg.NetMsg
	}
	var calls []held
	fw.ServerTx(func(tx ServerTx) {
		tx.Each(func(r *ServerRecord) {
			if r.executing {
				// Impossible under the barrier (execution happens inside a
				// dispatch, which the barrier excludes); left untouched if it
				// ever were.
				return
			}
			r.hold[HoldFIFO] = false
			r.hold[HoldTotal] = false
			r.hold[HoldCausal] = false
			calls = append(calls, held{key: r.Key, m: r.Msg})
		})
	})
	sort.Slice(calls, func(i, j int) bool {
		if calls[i].key.Client != calls[j].key.Client {
			return calls[i].key.Client < calls[j].key.Client
		}
		return calls[i].key.ID < calls[j].key.ID
	})
	for _, c := range calls {
		if seq != nil && c.m != nil {
			seq.Adopt(c.key, c.m)
		} else {
			fw.ForwardUp(c.key, HoldMain)
		}
	}
}

// HandleNet is the delivery entry point wired to the transport: it turns an
// arriving message into a MSG_FROM_NETWORK occurrence. A batch frame is
// unpacked here, its sub-messages dispatched sequentially in send order
// under one barrier acquisition — the transport contract is unordered, so
// serializing what used to race as independent deliveries only narrows the
// interleavings — and its replies answered with one frame (D16). A Call
// message carries its generation's kill token, through which Terminate
// Orphan and Close kill the computation.
func (fw *Framework) HandleNet(m *msg.NetMsg) {
	fw.cmu.Lock()
	if fw.closed {
		fw.cmu.Unlock()
		return
	}
	fw.cmu.Unlock()

	// Dissemination-tree hooks (D17) run before the reconfiguration
	// barrier: relaying only touches the raw transport, and keeping the
	// frozen bytes moving during a drain helps the drain finish. A relay
	// ack addressed to another node's call is consumed here; everything
	// else still dispatches below.
	if m.Type == msg.OpRelayAck {
		if fw.dissem.ConsumeRelayAck(m) {
			return
		}
	} else if m.Relay != 0 {
		fw.dissem.HandleRelay(m)
	}

	fw.dispatchMu.RLock()
	defer fw.dispatchMu.RUnlock()

	if m.Type == msg.OpBatch {
		if fw.Tracing() {
			fw.Emit(trace.Event{Kind: trace.KBatchDelivered, From: m.Sender,
				Op: msg.OpID(len(m.Batch))})
		}
		// The replies to the frame's calls park in the sender's lane until
		// the dispatch ends and then leave as one frame (D16).
		fw.flusher.holdReplies(m.Sender)
		for _, sub := range m.Batch {
			fw.handleOne(sub)
		}
		fw.flusher.releaseReplies(m.Sender)
		return
	}
	fw.handleOne(m)
}

// handleOne dispatches one (non-batch) delivered message. The caller holds
// the dispatch barrier shared.
func (fw *Framework) handleOne(m *msg.NetMsg) {
	// The event envelope is pooled: handlers receive it synchronously and
	// must not retain it past their return (handler discipline), so it can
	// be scrubbed and recycled as soon as the trigger completes.
	ev := netEventPool.Get().(*NetEvent)
	ev.Msg, ev.Thread = m, nil
	if m.Type == msg.OpCall {
		ev.Thread = fw.threads.For(m.Client, m.Inc)
	}
	fw.bus.Trigger(event.MsgFromNetwork, ev)
	ev.Msg, ev.Thread = nil, nil
	netEventPool.Put(ev)
}

// Call issues a synchronous (or, with Asynchronous Call configured,
// asynchronous) RPC to group. It triggers CALL_FROM_USER and returns the
// user message, whose ID, Args and Status fields have been filled in by the
// configured call-semantics micro-protocol. The caller passes the admission
// gate first (a reconfiguration drain may hold it closed briefly), and any
// blocking wait happens in the Collect continuation after dispatch, outside
// the reconfiguration barrier.
func (fw *Framework) Call(op msg.OpID, args []byte, group msg.Group) *msg.UserMsg {
	um := getUserMsg()
	um.Type, um.Op, um.Args, um.Server = msg.UserCall, op, args, group
	fw.admit.RLock()
	fw.dispatchMu.RLock()
	fw.bus.Trigger(event.CallFromUser, um)
	fw.dispatchMu.RUnlock()
	fw.admit.RUnlock()
	fw.CollectUserMsg(um)
	return um
}

// AdmitEnter passes the admission gate without issuing a call, blocking
// while a reconfiguration drain holds it closed. While a caller is inside
// the gate a drain-class swap cannot complete, so the node's call-mode
// configuration is stable — the facade uses this to make its mode check
// atomic with the submission. Pair with AdmitExit; do not block in between.
func (fw *Framework) AdmitEnter() { fw.admit.RLock() }

// AdmitExit releases AdmitEnter's hold on the admission gate.
func (fw *Framework) AdmitExit() { fw.admit.RUnlock() }

// CallAdmitted is Call for a caller that already holds the admission gate
// via AdmitEnter. It dispatches the call but does not run the Collect
// continuation; the caller runs it, if set, after releasing the gate.
func (fw *Framework) CallAdmitted(op msg.OpID, args []byte, group msg.Group) *msg.UserMsg {
	um := getUserMsg()
	um.Type, um.Op, um.Args, um.Server = msg.UserCall, op, args, group
	fw.dispatchMu.RLock()
	fw.bus.Trigger(event.CallFromUser, um)
	fw.dispatchMu.RUnlock()
	return um
}

// CollectUserMsg runs the blocking collect step for a dispatched user
// message whose Wait flag is set: park on the call's semaphore, then move
// the result into um and retire the record. Call and Request run it
// themselves; CallAdmitted callers run it after releasing the admission
// gate. It happens outside the dispatch barrier, so a parked caller never
// delays a swap.
func (fw *Framework) CollectUserMsg(um *msg.UserMsg) {
	if !um.Wait {
		return
	}
	um.Wait = false
	var s *sem.Sem
	fw.WithClient(um.ID, func(rec *ClientRecord) { s = rec.Sem })
	if s == nil {
		// Unknown or already-collected call.
		um.Status = msg.StatusAborted
		return
	}
	fw.flusher.waitBegin()
	s.P()
	fw.flusher.waitEnd()
	// Take transfers record ownership; the shard mutex pairing gives the
	// happens-before that makes the lock-free reads below safe.
	rec, ok := fw.TakeClient(um.ID)
	if !ok {
		um.Status = msg.StatusAborted
		return
	}
	um.Args = rec.Args
	um.Status = rec.Status
	um.Op = rec.Op
	releaseClientRec(rec)
}

// Request retrieves the result of a previously issued asynchronous call,
// blocking until it is available (Asynchronous Call micro-protocol).
// Collecting needs no admission (it creates no new call); the blocking wait
// happens outside the barrier, like Call's.
func (fw *Framework) Request(id msg.CallID) *msg.UserMsg {
	um := getUserMsg()
	um.Type, um.ID = msg.UserRequest, id
	fw.dispatchMu.RLock()
	fw.bus.Trigger(event.CallFromUser, um)
	fw.dispatchMu.RUnlock()
	fw.CollectUserMsg(um)
	return um
}

// Recover delivers the RECOVERY event with the site's new incarnation.
func (fw *Framework) Recover() {
	fw.SetInc(fw.site.Inc())
	fw.dispatchMu.RLock()
	defer fw.dispatchMu.RUnlock()
	fw.bus.Trigger(event.Recovery, fw.site.Inc())
}

// Close shuts the composite down: pending client calls are aborted (their
// waiters wake with StatusAborted), every kill token is killed, timers
// are stopped, and the membership subscription is dropped.
func (fw *Framework) Close() {
	fw.cmu.Lock()
	if fw.closed {
		fw.cmu.Unlock()
		return
	}
	fw.closed = true
	fw.cmu.Unlock()

	if fw.unsubscribe != nil {
		fw.unsubscribe()
	}
	fw.bus.Close()

	// Abort every pending call atomically (a call issued concurrently with
	// Close either completes normally or is aborted here, never missed),
	// then wake the parked callers outside the table locks. Only calls
	// aborted here are woken: completed-but-uncollected records already
	// carry their completion unit, and a gratuitous second V would leave a
	// phantom unit behind on a semaphore the record pool might reuse.
	var wake []*ClientRecord
	fw.ClientTx(func(tx ClientTx) {
		tx.Each(func(r *ClientRecord) {
			if r.Status == msg.StatusWaiting {
				r.Status = msg.StatusAborted
				wake = append(wake, r)
			}
		})
	})
	for _, r := range wake {
		if fw.Tracing() {
			fw.Emit(trace.Event{Kind: trace.KCallDone, Client: fw.Self(), ID: r.ID,
				Status: msg.StatusAborted})
		}
		r.Sem.V()
	}

	fw.threads.KillAll()
}
