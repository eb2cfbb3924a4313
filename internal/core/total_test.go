package core

import (
	"testing"
	"time"

	"mrpc/internal/clock"
	"mrpc/internal/event"
	"mrpc/internal/member"
	"mrpc/internal/msg"
	"mrpc/internal/proc"
)

// countFrom counts sends of type typ that from put on the wire itself (not
// relays of its frames by other members).
func (n *memNet) countFrom(typ msg.NetOp, from msg.ProcID) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	count := 0
	for _, s := range n.sent {
		if s.M.Type == typ && s.From == from {
			count++
		}
	}
	return count
}

// sameExecutions fails the test unless every recorder executed want calls
// in one order.
func sameExecutions(t *testing.T, srvs []*recordingServer, want int) {
	t.Helper()
	first := srvs[0].executed()
	for i, srv := range srvs {
		got := srv.executed()
		if len(got) != want {
			t.Fatalf("replica %d executed %v, want %d calls", i+1, got, want)
		}
		for j := range first {
			if got[j] != first[j] {
				t.Fatalf("replica %d order %v, want %v", i+1, got, first)
			}
		}
	}
}

// TestTotalOrderLeaderSkipsItsOwnOrder: on a flat group the leader sends
// each ORDER to the g−1 other members only and applies the assignment in
// place; every member still executes in one order.
func TestTotalOrderLeaderSkipsItsOwnOrder(t *testing.T) {
	net := newMemNet()
	_, srvs := totalGroup(t, net, nil)
	group := msg.NewGroup(1, 2, 3)
	client := addNode(t, net, 100, nodeOpts{},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: AcceptAll}, &Collation{},
		&UniqueExecution{})

	const calls = 5
	for i := 0; i < calls; i++ {
		if um := client.fw.Call(1, []byte{byte('a' + i)}, group); um.Status != msg.StatusOK {
			t.Fatalf("call %d: %v", i, um.Status)
		}
	}
	if got := net.countSent(msg.OpOrder, 3); got != 0 {
		t.Fatalf("leader sent itself %d ORDERs, want 0", got)
	}
	for _, p := range []msg.ProcID{1, 2} {
		if got := net.countSent(msg.OpOrder, p); got != calls {
			t.Fatalf("member %d got %d ORDERs, want %d", p, got, calls)
		}
	}
	if got := net.countSent(msg.OpOrder, 0); got != calls*(len(group)-1) {
		t.Fatalf("%d ORDER sends, want %d (g-1 per call)", got, calls*(len(group)-1))
	}
	sameExecutions(t, srvs, calls)
}

// TestTotalOrderTreeKeepsOrderEgressAtFanout: with tree(k) dissemination
// the leader puts each ORDER on the wire to its k children only, never to
// itself, and the relays reach every follower exactly once.
func TestTotalOrderTreeKeepsOrderEgressAtFanout(t *testing.T) {
	const k, calls = 2, 4
	net := newMemNet()
	group := msg.NewGroup(1, 2, 3, 4, 5, 6, 7) // leader 7
	var srvs []*recordingServer
	for _, id := range group {
		srv := &recordingServer{}
		n := addNode(t, net, id, nodeOpts{server: srv},
			&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
			&UniqueExecution{}, &TotalOrder{NudgeInterval: time.Hour})
		n.fw.SetTreeFanout(k)
		srvs = append(srvs, srv)
	}
	client := addNode(t, net, 100, nodeOpts{},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: AcceptAll}, &Collation{},
		&UniqueExecution{})
	client.fw.SetTreeFanout(k)

	for i := 0; i < calls; i++ {
		if um := client.fw.Call(1, []byte{byte('a' + i)}, group); um.Status != msg.StatusOK {
			t.Fatalf("call %d: %v", i, um.Status)
		}
	}
	if got := net.countFrom(msg.OpOrder, 7); got != calls*k {
		t.Fatalf("leader ORDER egress %d, want %d (k per call)", got, calls*k)
	}
	if got := net.countSent(msg.OpOrder, 7); got != 0 {
		t.Fatalf("leader sent itself %d ORDERs, want 0", got)
	}
	for _, p := range group[:len(group)-1] {
		if got := net.countSent(msg.OpOrder, p); got != calls {
			t.Fatalf("member %d got %d ORDERs, want %d", p, got, calls)
		}
	}
	sameExecutions(t, srvs, calls)
}

// TestTotalOrderNewLeaderAppliesInPlace: a follower that becomes leader
// holds calls the old leader never ordered; after the agreement round it
// assigns them, releases its own copies by applying the assignment in
// place and sends the ORDER to the others only.
func TestTotalOrderNewLeaderAppliesInPlace(t *testing.T) {
	net := newMemNet()
	oracle := member.NewOracle()
	group := msg.NewGroup(1, 2, 3) // 3 leads and is never attached
	var nodes []*testNode
	var srvs []*recordingServer
	for _, id := range group[:2] {
		srv := &recordingServer{}
		nodes = append(nodes, addNode(t, net, id, nodeOpts{server: srv, membership: oracle},
			&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
			&UniqueExecution{},
			&TotalOrder{NudgeInterval: 5 * time.Millisecond, AgreementDelay: 15 * time.Millisecond}))
		srvs = append(srvs, srv)
	}
	for _, n := range nodes {
		n.fw.HandleNet(callMsg(100, 1, 1, group, "c1"))
		n.fw.HandleNet(callMsg(101, 1, 1, group, "d1"))
	}
	if len(srvs[0].executed())+len(srvs[1].executed()) != 0 {
		t.Fatal("executed without an order")
	}

	oracle.Fail(3)
	waitUntil(t, func() bool {
		return len(srvs[0].executed()) == 2 && len(srvs[1].executed()) == 2
	})
	sameExecutions(t, srvs, 2)
	for _, s := range net.sentLog() {
		if s.From == 2 && s.To == 2 {
			t.Fatalf("new leader sent itself %v", s.M)
		}
	}
	if got := net.countFrom(msg.OpOrder, 2); got == 0 {
		t.Fatal("new leader announced nothing to the others")
	}
}

// cancelLast registers a handler after every ordering protocol that
// cancels each Call occurrence, so the ordering protocols' cancellation
// compensations run.
func cancelLast(t *testing.T, n *testNode) {
	t.Helper()
	err := n.bus.Register(event.MsgFromNetwork, "test.cancelLast", PrioOrder+1,
		func(o *event.Occurrence) {
			if o.Arg.(*NetEvent).Msg.Type == msg.OpCall {
				o.Cancel()
			}
		})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOrderingCompensatesOnLaterCancel: a call held for its sequence
// number or for a causal predecessor is forgotten when a later handler
// cancels its delivery (D6).
func TestOrderingCompensatesOnLaterCancel(t *testing.T) {
	group := msg.NewGroup(1, 3)

	to := &TotalOrder{NudgeInterval: time.Hour}
	n := addNode(t, newMemNet(), 1, nodeOpts{server: &recordingServer{}},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
		&UniqueExecution{}, to)
	cancelLast(t, n)
	n.fw.HandleNet(callMsg(100, 1, 1, group, "c1"))
	to.st.mu.Lock()
	waiting := len(to.st.waiting)
	to.st.mu.Unlock()
	if waiting != 0 {
		t.Fatalf("Total Order still holds %d cancelled calls", waiting)
	}

	co := &CausalOrder{}
	n = addNode(t, newMemNet(), 1, nodeOpts{server: &recordingServer{}},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
		&UniqueExecution{}, co)
	cancelLast(t, n)
	n.fw.HandleNet(causalCall(100, 2, 1, group, "c2", msg.VClock{100: 2}))
	co.mu.Lock()
	held := len(co.held)
	co.mu.Unlock()
	if held != 0 {
		t.Fatalf("Causal Order still holds %d cancelled calls", held)
	}
}

// discardNet drops every send, so an allocation count sees one node's
// handlers and nothing of a test network.
type discardNet struct{}

func (discardNet) Push(msg.ProcID, *msg.NetMsg)     {}
func (discardNet) Multicast(msg.Group, *msg.NetMsg) {}

// directNet delivers synchronously to the destination's framework without
// copying: a sent message is frozen and every recipient shares it, as on
// the simulated network.
type directNet map[msg.ProcID]*Framework

type directEP struct{ n directNet }

func (e directEP) Push(to msg.ProcID, m *msg.NetMsg) {
	m.Freeze()
	if fw := e.n[to]; fw != nil {
		fw.HandleNet(m)
	}
}

func (e directEP) Multicast(group msg.Group, m *msg.NetMsg) {
	for _, to := range group {
		e.Push(to, m)
	}
}

// returnArgs is a server that allocates nothing.
var returnArgs = ServerFunc(func(_ *proc.Thread, _ msg.OpID, args []byte) []byte { return args })

// replicaProtos is the server composite of the ordered call path: Total
// Order's required companions plus, with ordered set, Total Order itself.
func replicaProtos(ordered bool) []MicroProtocol {
	protos := []MicroProtocol{
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: AcceptAll}, &Collation{},
		&ReliableCommunication{RetransTimeout: time.Hour}, &UniqueExecution{},
	}
	if ordered {
		protos = append(protos, &TotalOrder{NudgeInterval: time.Hour})
	}
	return protos
}

// newBareNode starts a framework with protos attached on net.
func newBareNode(tb testing.TB, id msg.ProcID, net Transport, server Server, protos []MicroProtocol) *Framework {
	tb.Helper()
	fw, err := NewFramework(Options{
		Site: proc.NewSite(id), Bus: event.New(clock.NewReal()), Net: net, Server: server,
	})
	if err != nil {
		tb.Fatal(err)
	}
	for _, p := range protos {
		if err := p.Attach(fw); err != nil {
			tb.Fatalf("attach %s: %v", p.Name(), err)
		}
	}
	fw.Start()
	tb.Cleanup(fw.Close)
	return fw
}

// orderedDeliveryAllocs is the allocations per call at member self of the
// group {1, 2, 3} (leader 3) for one fresh call of a known client and
// group: the CALL and, at a follower, the leader's ORDER.
func orderedDeliveryAllocs(t *testing.T, self msg.ProcID, ordered bool) float64 {
	const warm, runs = 256, 2000
	fw := newBareNode(t, self, discardNet{}, returnArgs, replicaProtos(ordered))
	group := msg.NewGroup(1, 2, 3)
	calls := make([]*msg.NetMsg, 0, warm+runs+1)
	orders := make([]*msg.NetMsg, 0, cap(calls))
	for seq := uint32(1); seq <= uint32(cap(calls)); seq++ {
		id := callID(1, seq)
		calls = append(calls, markedCall(id, id, group, "x"))
		orders = append(orders, &msg.NetMsg{Type: msg.OpOrder, ID: id, Client: 100,
			Server: group, Sender: 3, Inc: 1, Order: int64(seq)})
	}
	next := 0
	deliver := func() {
		fw.HandleNet(calls[next])
		if self != 3 {
			fw.HandleNet(orders[next])
		}
		next++
	}
	for next < warm {
		deliver()
	}
	return testing.AllocsPerRun(runs, deliver)
}

// TestTotalOrderKnownGroupAllocs is the allocation guard of the ordered
// call path: for a known client and group, Total Order adds nothing to a
// follower's CALL and ORDER, and adds exactly the ORDER message to the
// leader's CALL. Each figure is the difference between the same composite
// with and without Total Order.
func TestTotalOrderKnownGroupAllocs(t *testing.T) {
	skipAllocGuard(t)
	for _, c := range []struct {
		role string
		self msg.ProcID
		want float64
	}{
		{"follower", 1, 0},
		{"leader", 3, 1},
	} {
		with := orderedDeliveryAllocs(t, c.self, true)
		without := orderedDeliveryAllocs(t, c.self, false)
		t.Logf("%s: %v allocs per call with Total Order, %v without", c.role, with, without)
		if got := with - without; got != c.want {
			t.Errorf("%s: Total Order costs %v allocs per call, want %v", c.role, got, c.want)
		}
	}
}

// BenchmarkTotalOrderCall is one synchronous call from a client to three
// replicas over a copy-free synchronous network, with and without Total
// Order on the replicas.
func BenchmarkTotalOrderCall(b *testing.B) {
	for _, c := range []struct {
		name    string
		ordered bool
	}{{"ordered", true}, {"unordered", false}} {
		b.Run(c.name, func(b *testing.B) {
			net := directNet{}
			group := msg.NewGroup(1, 2, 3)
			for _, id := range group {
				net[id] = newBareNode(b, id, directEP{net}, returnArgs, replicaProtos(c.ordered))
			}
			client := newBareNode(b, 100, directEP{net}, nil, []MicroProtocol{
				&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: AcceptAll}, &Collation{},
				&ReliableCommunication{RetransTimeout: time.Hour}, &UniqueExecution{},
			})
			net[100] = client
			args := []byte("x")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				um := client.Call(1, args, group)
				if um.Status != msg.StatusOK {
					b.Fatalf("call %d: %v", i, um.Status)
				}
				PutUserMsg(um)
			}
		})
	}
}
