// Package netsim provides the unreliable communication substrate beneath
// the gRPC composite protocol — the "Net" protocol of the paper's protocol
// stack, reimplemented as an in-process simulated network.
//
// The paper assumes an asynchronous system whose communication layer can
// experience omission and performance failures. netsim therefore injects,
// under seeded random sources: message loss, duplication, variable delay
// (which also yields reordering), and link partitions. Endpoints can be
// taken down and brought back up to model site crashes.
//
// The send/deliver path is built for group traffic (deviation D13 in
// DESIGN.md): a multicast is admitted under a single critical section of
// the network lock, the message is frozen and shared by every destination
// instead of deep-cloned per member, fault rolls come from deterministic
// per-directed-link generators derived from Params.Seed, and with
// EncodeOnWire set the message is encoded once per send with each delivery
// decoding from the shared immutable wire bytes. Deliveries run on the
// pooled per-endpoint workers of transport.Inbox; an arrival never waits
// behind another arrival's blocked handler. What is left here is the
// simulator's own: admission, fault rolls and scheduling.
//
// Substitution note (DESIGN.md §2): the micro-protocols observe the network
// only through push operations and message-arrival events, so an
// adversarial simulated transport exercises the same — in fact strictly
// more — failure-handling code paths as the authors' LAN.
package netsim

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"mrpc/internal/clock"
	"mrpc/internal/msg"
	"mrpc/internal/transport"
)

// netsim is one implementation of the transport seam; internal/nettcp is
// the other. Code above the seam (the facade, core, experiments) holds
// only the interfaces — simulator-only fault controls (Partition,
// SetLinkDelay, Params) are reached through mrpc's System.Sim().
var (
	_ transport.Transport = (*Network)(nil)
	_ transport.Endpoint  = (*Endpoint)(nil)
)

// Params configures the fault and delay model of a Network.
type Params struct {
	// Seed initializes the fault-injection random sources. Each directed
	// link derives its own generator from Seed, so the loss/dup/delay
	// sequence one link observes depends only on that link's traffic.
	Seed int64
	// MinDelay and MaxDelay bound the uniform per-message delivery delay.
	MinDelay, MaxDelay time.Duration
	// LossProb is the probability a given delivery is dropped.
	LossProb float64
	// DupProb is the probability a given delivery is duplicated once.
	DupProb float64
	// Reorder configures network-wide bounded reordering storms; a
	// per-link LinkProfile.Reorder overrides it for that direction.
	Reorder ReorderParams
	// EncodeOnWire, when set, round-trips every message through the binary
	// codec, exercising marshalling exactly as a byte transport would. The
	// encode happens once per send; every delivery decodes from the shared
	// wire bytes.
	EncodeOnWire bool
}

type link struct{ a, b msg.ProcID }

func linkKey(a, b msg.ProcID) link {
	if a > b {
		a, b = b, a
	}
	return link{a, b}
}

// dirLink is a directed link: fault state and one-way partitions are
// per-direction.
type dirLink struct{ from, to msg.ProcID }

type linkDelay struct{ min, max time.Duration }

// linkState is the fault-injection state of one directed link. Each link
// rolls from its own seeded generator, so the pseudo-random sequence it
// observes depends only on its own traffic order — and the rolls happen
// under the link's lock, not the network lock.
type linkState struct {
	mu  sync.Mutex
	rng *rand.Rand
	// storm is the number of remaining messages in the current reordering
	// storm window (0 when no storm is active); see ReorderParams.
	storm int
}

// linkSeed mixes the network seed with the directed link identity
// (SplitMix64 finalizer) so links get independent, reproducible streams.
func linkSeed(seed int64, from, to msg.ProcID) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(uint64(uint32(from))<<32|uint64(uint32(to)))
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Network is a simulated network connecting endpoints by process id.
type Network struct {
	clk    clock.Clock
	params Params

	mu          sync.Mutex
	eps         map[msg.ProcID]*Endpoint
	partitioned map[link]bool
	oneWay      map[dirLink]bool
	delays      map[link]linkDelay
	profiles    map[dirLink]LinkProfile // adversarial per-direction profiles (D19)
	gray        map[msg.ProcID]time.Duration
	links       map[dirLink]*linkState // lazily created, only for links that roll
	stopped     bool

	// flight counts admitted deliveries; send paths add to it while
	// holding mu, which orders the count against Quiesce.
	flight *transport.Flight

	sent, dropped, duplicated, partition, batches atomic.Int64
	reordered, spikes, grayDelays, flapCycles     atomic.Int64
}

// New creates a network with the given fault model, using clk for delays.
func New(clk clock.Clock, p Params) *Network {
	if p.MaxDelay < p.MinDelay {
		p.MaxDelay = p.MinDelay
	}
	return &Network{
		clk:         clk,
		params:      p,
		eps:         make(map[msg.ProcID]*Endpoint),
		partitioned: make(map[link]bool),
		oneWay:      make(map[dirLink]bool),
		delays:      make(map[link]linkDelay),
		profiles:    make(map[dirLink]LinkProfile),
		gray:        make(map[msg.ProcID]time.Duration),
		links:       make(map[dirLink]*linkState),
		flight:      transport.NewFlight(),
	}
}

// Endpoint is one process's attachment point; it provides the x-kernel-style
// push operations used by the micro-protocols. Its receive side — handler,
// up state, delivery workers — is the embedded transport.Inbox.
type Endpoint struct {
	*transport.Inbox
	net *Network
	id  msg.ProcID

	egress atomic.Int64
}

// Attach connects process id to the network with h as its delivery handler.
// Attaching an id twice is an error.
func (n *Network) Attach(id msg.ProcID, h transport.Handler) (transport.Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.eps[id]; ok {
		return nil, fmt.Errorf("netsim: process %d already attached", id)
	}
	e := &Endpoint{Inbox: n.flight.NewInbox(h), net: n, id: id}
	n.eps[id] = e
	return e, nil
}

// ID returns the endpoint's process id.
func (e *Endpoint) ID() msg.ProcID { return e.id }

// Stats returns a snapshot of the endpoint's traffic counters.
func (e *Endpoint) Stats() transport.EndpointStats {
	return transport.EndpointStats{Egress: e.egress.Load(), Ingress: e.Ingress()}
}

// Push sends m to a single destination (Net.push of the paper). The message
// is frozen, not cloned: the caller and every recipient share one read-only
// body, and the caller must not mutate m afterwards (take msg.NetMsg.Mutable
// for a writable copy; mrpclint enforces the discipline in-module).
func (e *Endpoint) Push(to msg.ProcID, m *msg.NetMsg) {
	e.net.send(e, to, m)
}

// Multicast sends m to every member of the group, including the sender's
// own process if it is a member (the paper's Net.push(server_group, msg)).
// The whole group is admitted under one critical section of the network
// lock, and every member shares the same frozen message (or, with
// EncodeOnWire, the same once-encoded wire bytes).
func (e *Endpoint) Multicast(group msg.Group, m *msg.NetMsg) {
	e.net.multicast(e, group, m)
}

// Partition blocks (or with blocked=false, unblocks) direct communication
// between a and b in both directions.
func (n *Network) Partition(a, b msg.ProcID, blocked bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if blocked {
		n.partitioned[linkKey(a, b)] = true
	} else {
		delete(n.partitioned, linkKey(a, b))
	}
}

// PartitionOneWay blocks (or unblocks) messages from "from" to "to" only;
// traffic in the opposite direction is unaffected. One-way partitions
// model asymmetric failures (a dead uplink, a misconfigured route) that
// make failure detection genuinely hard.
func (n *Network) PartitionOneWay(from, to msg.ProcID, blocked bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if blocked {
		n.oneWay[dirLink{from: from, to: to}] = true
	} else {
		delete(n.oneWay, dirLink{from: from, to: to})
	}
}

// SetLinkDelay overrides the delay bounds on the (a, b) link in both
// directions; used by experiments with heterogeneous server latencies.
func (n *Network) SetLinkDelay(a, b msg.ProcID, min, max time.Duration) {
	if max < min {
		max = min
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.delays[linkKey(a, b)] = linkDelay{min: min, max: max}
}

// Stats returns a snapshot of the network counters.
func (n *Network) Stats() transport.Stats {
	return transport.Stats{
		Sent:       n.sent.Load(),
		Delivered:  n.flight.Delivered.Load(),
		Dropped:    n.dropped.Load(),
		Duplicated: n.duplicated.Load(),
		Partition:  n.partition.Load(),
		DownDrops:  n.flight.DownDrops.Load(),
		Batches:    n.batches.Load(),
		Reordered:  n.reordered.Load(),
		Spikes:     n.spikes.Load(),
		GrayDelays: n.grayDelays.Load(),
		FlapCycles: n.flapCycles.Load(),
	}
}

// Stop shuts the network down, waits for all in-flight deliveries to
// finish, and retires the parked delivery workers. Further sends are
// silently discarded.
func (n *Network) Stop() {
	n.mu.Lock()
	n.stopped = true
	n.mu.Unlock()
	n.flight.Retire()
}

// Quiesce waits for all deliveries currently in flight to complete without
// stopping the network. Tests use it to reach a stable state.
func (n *Network) Quiesce() {
	n.flight.Wait()
}

// admitted is one destination that passed admission: its endpoint, the
// delay bounds in force, the adversarial-profile knobs resolved for the
// direction, and the link's fault state (nil when the link has nothing to
// roll — no loss, no duplication, no jitter, no spikes, no storms).
type admitted struct {
	dest    *Endpoint
	ls      *linkState
	d       linkDelay
	prof    LinkProfile   // zero value when the direction has no profile
	reorder ReorderParams // profile override or Params.Reorder
	gray    time.Duration // deterministic gray-slow delay (sender + receiver)
}

// admitOne performs the under-lock part of sending to one destination:
// partition check, endpoint lookup, delay-bound lookup, lazy link-state
// creation. It returns ok=false when the message will not travel (the
// corresponding counter has then been bumped). Callers hold n.mu.
func (n *Network) admitOne(from, to msg.ProcID) (admitted, bool) {
	n.sent.Add(1)
	if n.partitioned[linkKey(from, to)] || n.oneWay[dirLink{from: from, to: to}] {
		n.partition.Add(1)
		return admitted{}, false
	}
	dest, ok := n.eps[to]
	if !ok {
		n.flight.DownDrops.Add(1)
		return admitted{}, false
	}
	d := n.delays[linkKey(from, to)]
	prof, hasProf := n.profiles[dirLink{from: from, to: to}]
	if hasProf {
		d = linkDelay{min: prof.MinDelay, max: prof.MaxDelay}
	} else if d.max == 0 && d.min == 0 {
		d = linkDelay{min: n.params.MinDelay, max: n.params.MaxDelay}
	}
	reorder := n.params.Reorder
	if prof.Reorder.active() {
		reorder = prof.Reorder
	}
	a := admitted{dest: dest, d: d, prof: prof, reorder: reorder,
		gray: n.gray[from] + n.gray[to]}
	if n.params.LossProb > 0 || n.params.DupProb > 0 || d.max > d.min ||
		prof.SpikeProb > 0 || reorder.active() {
		k := dirLink{from: from, to: to}
		ls, ok := n.links[k]
		if !ok {
			ls = &linkState{rng: rand.New(rand.NewSource(linkSeed(n.params.Seed, from, to)))}
			n.links[k] = ls
		}
		a.ls = ls
	}
	return a, true
}

// send is the single-destination path (Push).
func (n *Network) send(from *Endpoint, to msg.ProcID, m *msg.NetMsg) {
	if !from.Up() {
		return // a crashed site sends nothing
	}
	m.Freeze()
	if m.Type == msg.OpBatch {
		n.batches.Add(1)
	}

	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	if to != from.id {
		from.egress.Add(1)
	}
	a, ok := n.admitOne(from.id, to)
	if ok {
		n.flight.Add(1)
	}
	n.mu.Unlock()
	if !ok {
		return
	}
	n.transmit(a, n.onWire(m))
}

// multicast admits the whole group under one critical section of n.mu,
// encodes at most once, then rolls per-link faults and schedules
// deliveries outside the lock.
func (n *Network) multicast(from *Endpoint, group msg.Group, m *msg.NetMsg) {
	if !from.Up() {
		return
	}
	m.Freeze()

	// The plan stays on the stack for realistic group sizes.
	var planBuf [8]admitted
	plan := planBuf[:0]
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	for _, to := range group {
		if to != from.id {
			from.egress.Add(1)
		}
		if a, ok := n.admitOne(from.id, to); ok {
			plan = append(plan, a)
		}
	}
	n.flight.Add(len(plan))
	n.mu.Unlock()
	if len(plan) == 0 {
		return
	}

	d := n.onWire(m) // encode once for the whole group
	for _, a := range plan {
		n.transmit(a, d)
	}
}

// onWire is what every destination of one send shares: the frozen message,
// or with EncodeOnWire its wire bytes — a relayed frame's shared bytes
// (D17), else one fresh encoding.
func (n *Network) onWire(m *msg.NetMsg) transport.Delivery {
	if !n.params.EncodeOnWire {
		return transport.Delivery{Msg: m}
	}
	if w := m.Wire(); w != nil {
		return transport.Delivery{Wire: w}
	}
	return transport.Delivery{Wire: m.Encode()}
}

// transmit rolls the link's faults under the link lock and schedules the
// surviving deliveries. The roll order is fixed — loss, duplication,
// jitter, spike, storm — and lost messages consume only the loss roll, so
// a link's pseudo-random sequence depends only on its own traffic order
// (the determinism contract the conformance harness shrinks against).
func (n *Network) transmit(a admitted, d transport.Delivery) {
	copies := 1
	first, second := a.d.min, a.d.min
	if a.ls != nil {
		a.ls.mu.Lock()
		rng := a.ls.rng
		if n.params.LossProb > 0 && rng.Float64() < n.params.LossProb {
			copies = 0
			n.dropped.Add(1)
		} else if n.params.DupProb > 0 && rng.Float64() < n.params.DupProb {
			copies = 2
			n.duplicated.Add(1)
		}
		if span := a.d.max - a.d.min; span > 0 {
			if copies >= 1 {
				first += time.Duration(rng.Int63n(int64(span) + 1))
			}
			if copies == 2 {
				second += time.Duration(rng.Int63n(int64(span) + 1))
			}
		}
		if copies >= 1 && a.prof.SpikeProb > 0 {
			if rng.Float64() < a.prof.SpikeProb {
				first += a.prof.SpikeDelay
				n.spikes.Add(1)
			}
			if copies == 2 && rng.Float64() < a.prof.SpikeProb {
				second += a.prof.SpikeDelay
				n.spikes.Add(1)
			}
		}
		if copies >= 1 && a.reorder.active() {
			if a.ls.storm == 0 && rng.Float64() < a.reorder.Prob {
				a.ls.storm = a.reorder.Window
			}
			if a.ls.storm > 0 {
				a.ls.storm-- // one slot per message, not per copy
				n.reordered.Add(1)
				first += time.Duration(rng.Int63n(int64(a.reorder.Spread) + 1))
				if copies == 2 {
					second += time.Duration(rng.Int63n(int64(a.reorder.Spread) + 1))
				}
			}
		}
		a.ls.mu.Unlock()
	}
	// Settle the admission-time count against the roll: a lost copy is
	// retired here, a duplicate gains a count while the original's is
	// still held (so the total never passes through zero mid-transmit).
	if copies == 0 {
		n.flight.Done()
		return
	}
	// Deterministic additions draw no randomness: serialization time under
	// a bandwidth cap, and the gray-slow delay of either end.
	if a.prof.BytesPerSec > 0 {
		ser := time.Duration(wireSize(d) * int64(time.Second) / a.prof.BytesPerSec)
		first += ser
		second += ser
	}
	if a.gray > 0 {
		first += a.gray
		second += a.gray
		n.grayDelays.Add(1)
	}
	if copies == 2 {
		n.flight.Add(1)
	}
	n.scheduleDelivery(a.dest, d, first)
	if copies == 2 {
		n.scheduleDelivery(a.dest, d, second)
	}
}

func (n *Network) scheduleDelivery(dest *Endpoint, d transport.Delivery, delay time.Duration) {
	if delay <= 0 {
		dest.Dispatch(d)
		return
	}
	n.clk.AfterFunc(delay, func() {
		// Handlers may block (serial execution, semaphores); never run them
		// on the clock's timer goroutine.
		dest.Dispatch(d)
	})
}
