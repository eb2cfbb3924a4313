package core

import (
	"testing"
	"time"

	"mrpc/internal/member"
	"mrpc/internal/msg"
	"mrpc/internal/proc"
)

// fifoNode builds a server with FIFO Order (and its dependencies' handlers
// that matter server-side: Unique Execution).
func fifoNode(t *testing.T, net *memNet) (*testNode, *recordingServer) {
	t.Helper()
	srv := &recordingServer{}
	n := addNode(t, net, 1, nodeOpts{server: srv},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
		&UniqueExecution{}, &FIFOOrder{})
	return n, srv
}

func TestFIFOHoldsSuccessorUntilPredecessorExecutes(t *testing.T) {
	net := newMemNet()
	n, srv := fifoNode(t, net)
	group := msg.NewGroup(1)

	n.fw.HandleNet(callMsg(100, 1, 1, group, "c1")) // executes, next=2
	n.fw.HandleNet(callMsg(100, 3, 1, group, "c3")) // held: 3 != next(2)
	if got := srv.executed(); len(got) != 1 {
		t.Fatalf("executed %v, want only c1 (c3 must be held)", got)
	}
	if n.fw.PendingServerCalls() != 1 {
		t.Fatal("held call not retained in sRPC")
	}

	n.fw.HandleNet(callMsg(100, 2, 1, group, "c2")) // executes 2, then 3
	want := []string{"c1", "c2", "c3"}
	got := srv.executed()
	if len(got) != 3 {
		t.Fatalf("executed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order %v, want %v", got, want)
		}
	}
	if n.fw.PendingServerCalls() != 0 {
		t.Fatal("records left after draining")
	}
}

func TestFIFOPerClientIndependence(t *testing.T) {
	net := newMemNet()
	n, srv := fifoNode(t, net)
	group := msg.NewGroup(1)

	n.fw.HandleNet(callMsg(100, 2, 1, group, "a2")) // first seen from 100: next=2, executes
	n.fw.HandleNet(callMsg(101, 7, 1, group, "b7")) // first seen from 101: next=7, executes
	n.fw.HandleNet(callMsg(101, 8, 1, group, "b8")) // executes
	n.fw.HandleNet(callMsg(100, 3, 1, group, "a3")) // executes
	if got := srv.executed(); len(got) != 4 {
		t.Fatalf("executed %v", got)
	}
}

func TestFIFODropsAlreadyServedAndStaleIncarnation(t *testing.T) {
	net := newMemNet()
	n, srv := fifoNode(t, net)
	group := msg.NewGroup(1)

	n.fw.HandleNet(callMsg(100, 5, 2, group, "five"))
	// Already served id (without Unique's tables knowing: strip via new
	// payload) — id < next.
	n.fw.HandleNet(callMsg(100, 4, 2, group, "four"))
	// Stale incarnation.
	n.fw.HandleNet(callMsg(100, 9, 1, group, "old-inc"))
	if got := srv.executed(); len(got) != 1 || got[0] != "five" {
		t.Fatalf("executed %v, want [five]", got)
	}
	if n.fw.PendingServerCalls() != 0 {
		t.Fatal("dropped calls left records")
	}
}

func TestFIFONewIncarnationResetsSequence(t *testing.T) {
	net := newMemNet()
	n, srv := fifoNode(t, net)
	group := msg.NewGroup(1)

	n.fw.HandleNet(callMsg(100, 5, 1, group, "inc1-5"))
	n.fw.HandleNet(callMsg(100, 1, 2, group, "inc2-1")) // new incarnation: reset
	n.fw.HandleNet(callMsg(100, 2, 2, group, "inc2-2"))
	want := []string{"inc1-5", "inc2-1", "inc2-2"}
	got := srv.executed()
	if len(got) != len(want) {
		t.Fatalf("executed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("executed %v, want %v", got, want)
		}
	}
}

func TestFIFOStrictInitHoldsReorderedOpening(t *testing.T) {
	net := newMemNet()
	srv := &recordingServer{}
	n := addNode(t, net, 1, nodeOpts{server: srv},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
		&UniqueExecution{}, &FIFOOrder{StrictInit: true})
	group := msg.NewGroup(1)

	// The client's opening batch arrives reordered: seq 3, then 2, then 1.
	n.fw.HandleNet(callMsg(100, mkID(1, 3), 1, group, "c3"))
	n.fw.HandleNet(callMsg(100, mkID(1, 2), 1, group, "c2"))
	if got := srv.executed(); len(got) != 0 {
		t.Fatalf("executed %v before the incarnation's first call", got)
	}
	n.fw.HandleNet(callMsg(100, mkID(1, 1), 1, group, "c1"))
	got := srv.executed()
	want := []string{"c1", "c2", "c3"}
	if len(got) != len(want) {
		t.Fatalf("executed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("executed %v, want %v", got, want)
		}
	}

	// A new incarnation's opening batch behaves the same.
	n.fw.HandleNet(callMsg(100, mkID(2, 2), 2, group, "i2c2"))
	if len(srv.executed()) != 3 {
		t.Fatal("new incarnation's second call ran before its first")
	}
	n.fw.HandleNet(callMsg(100, mkID(2, 1), 2, group, "i2c1"))
	got = srv.executed()
	if len(got) != 5 || got[3] != "i2c1" || got[4] != "i2c2" {
		t.Fatalf("executed %v", got)
	}
}

// callMarked is callMsg for a call that carries its client's low-water mark.
func callMarked(client msg.ProcID, id, mark msg.CallID, inc msg.Incarnation, group msg.Group, payload string) *msg.NetMsg {
	m := callMsg(client, id, inc, group, payload)
	m.AckID = mark
	return m
}

func TestFIFOLaneOpensAtClientMark(t *testing.T) {
	net := newMemNet()
	n, srv := fifoNode(t, net)
	group := msg.NewGroup(1)

	// Call 2 overtakes call 1, which the client still holds (its mark is
	// 1): the lane opens at 1 and holds call 2 instead of discarding call 1
	// when it arrives.
	n.fw.HandleNet(callMarked(100, mkID(1, 2), mkID(1, 1), 1, group, "c2"))
	if got := srv.executed(); len(got) != 0 {
		t.Fatalf("executed %v ahead of the client's mark", got)
	}
	n.fw.HandleNet(callMarked(100, mkID(1, 1), mkID(1, 1), 1, group, "c1"))
	got := srv.executed()
	if len(got) != 2 || got[0] != "c1" || got[1] != "c2" {
		t.Fatalf("executed %v, want [c1 c2]", got)
	}

	// A mark of another incarnation says nothing about this one's calls:
	// the new incarnation's lane opens at the call itself.
	n.fw.HandleNet(callMarked(100, mkID(2, 3), mkID(1, 2), 2, group, "i2c3"))
	if got := srv.executed(); len(got) != 3 || got[2] != "i2c3" {
		t.Fatalf("executed %v, want i2c3 run on arrival", got)
	}
}

func TestFIFORebuiltMemberOpensAtArrival(t *testing.T) {
	// A member rebuilt after a crash may have received the mark's call in
	// its past life, so no one sends it again: its lane opens at the first
	// call to arrive rather than wait at the mark forever.
	site := proc.NewSite(1)
	site.Crash()
	site.Recover()
	net := newMemNet()
	srv := &recordingServer{}
	n := addNode(t, net, 1, nodeOpts{server: srv, site: site},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
		&UniqueExecution{}, &FIFOOrder{})
	group := msg.NewGroup(1)

	n.fw.HandleNet(callMarked(100, mkID(1, 2), mkID(1, 1), 1, group, "c2"))
	if got := srv.executed(); len(got) != 1 || got[0] != "c2" {
		t.Fatalf("executed %v, want [c2]", got)
	}
}

// totalGroup builds a 3-server group with Total Order; returns nodes and
// their recorders. Servers are 1..3; leader is 3.
func totalGroup(t *testing.T, net *memNet, ms member.Service) ([]*testNode, []*recordingServer) {
	t.Helper()
	var nodes []*testNode
	var srvs []*recordingServer
	for id := msg.ProcID(1); id <= 3; id++ {
		srv := &recordingServer{}
		n := addNode(t, net, id, nodeOpts{server: srv, membership: ms},
			&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
			&UniqueExecution{}, &TotalOrder{})
		nodes = append(nodes, n)
		srvs = append(srvs, srv)
	}
	return nodes, srvs
}

func TestTotalOrderAllReplicasSameSequence(t *testing.T) {
	net := newMemNet()
	_, srvs := totalGroup(t, net, nil)
	group := msg.NewGroup(1, 2, 3)
	client := addNode(t, net, 100, nodeOpts{},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: AcceptAll}, &Collation{},
		&UniqueExecution{})

	for i := 0; i < 5; i++ {
		um := client.fw.Call(1, []byte{byte('a' + i)}, group)
		if um.Status != msg.StatusOK {
			t.Fatalf("call %d: %v", i, um.Status)
		}
	}
	first := srvs[0].executed()
	if len(first) != 5 {
		t.Fatalf("replica 1 executed %v", first)
	}
	for i, srv := range srvs[1:] {
		got := srv.executed()
		if len(got) != len(first) {
			t.Fatalf("replica %d executed %d, want %d", i+2, len(got), len(first))
		}
		for j := range first {
			if got[j] != first[j] {
				t.Fatalf("replica %d order %v, want %v", i+2, got, first)
			}
		}
	}
}

func TestTotalOrderFollowerBuffersUntilOrder(t *testing.T) {
	net := newMemNet()
	srv := &recordingServer{}
	// A lone follower (id 1 in a group whose leader, id 3, is elsewhere
	// and unreachable through the hook).
	n := addNode(t, net, 1, nodeOpts{server: srv},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
		&UniqueExecution{}, &TotalOrder{})
	group := msg.NewGroup(1, 3)

	n.fw.HandleNet(callMsg(100, 1, 1, group, "c1"))
	if got := srv.executed(); len(got) != 0 {
		t.Fatalf("follower executed %v without an order", got)
	}
	if n.fw.PendingServerCalls() != 1 {
		t.Fatal("unordered call not buffered")
	}

	// The leader's ORDER message arrives: sequence number 1 = next entry.
	n.fw.HandleNet(&msg.NetMsg{
		Type: msg.OpOrder, ID: 1, Client: 100, Server: group, Sender: 3, Order: 1,
	})
	if got := srv.executed(); len(got) != 1 || got[0] != "c1" {
		t.Fatalf("executed %v after order", got)
	}
}

func TestTotalOrderOutOfOrderSequencing(t *testing.T) {
	net := newMemNet()
	srv := &recordingServer{}
	n := addNode(t, net, 1, nodeOpts{server: srv},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
		&UniqueExecution{}, &TotalOrder{})
	group := msg.NewGroup(1, 3)

	// Orders arrive before some calls and out of sequence.
	n.fw.HandleNet(callMsg(100, 1, 1, group, "c1"))
	n.fw.HandleNet(callMsg(100, 2, 1, group, "c2"))
	// Order for c2 first (sequence 2): cannot run yet.
	n.fw.HandleNet(&msg.NetMsg{Type: msg.OpOrder, ID: 2, Client: 100, Server: group, Sender: 3, Order: 2})
	if len(srv.executed()) != 0 {
		t.Fatal("executed before sequence 1 was ordered")
	}
	// Order for c1 (sequence 1): now both run, in sequence order.
	n.fw.HandleNet(&msg.NetMsg{Type: msg.OpOrder, ID: 1, Client: 100, Server: group, Sender: 3, Order: 1})
	got := srv.executed()
	if len(got) != 2 || got[0] != "c1" || got[1] != "c2" {
		t.Fatalf("executed %v, want [c1 c2]", got)
	}
}

func TestTotalOrderLeaderAssignsAndExecutes(t *testing.T) {
	net := newMemNet()
	srv := &recordingServer{}
	// This node IS the leader (highest id in the group).
	n := addNode(t, net, 3, nodeOpts{server: srv},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
		&UniqueExecution{}, &TotalOrder{})
	group := msg.NewGroup(1, 3)

	n.fw.HandleNet(callMsg(100, 1, 1, group, "c1"))
	if got := srv.executed(); len(got) != 1 {
		t.Fatalf("leader executed %v", got)
	}
	// The leader must have multicast an ORDER message to the group.
	if got := net.countSent(msg.OpOrder, 1); got != 1 {
		t.Fatalf("orders sent to follower = %d, want 1", got)
	}
}

func TestTotalOrderRetransmissionForwardedToLeader(t *testing.T) {
	net := newMemNet()
	srv := &recordingServer{}
	n := addNode(t, net, 1, nodeOpts{server: srv},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
		&UniqueExecution{}, &TotalOrder{})
	group := msg.NewGroup(1, 3)

	m := callMsg(100, 1, 1, group, "c1")
	n.fw.HandleNet(m.Clone()) // buffered, waiting for order
	// The client retransmits; the follower nudges the leader.
	before := net.countSent(msg.OpCall, 3)
	n.fw.HandleNet(m.Clone())
	if got := net.countSent(msg.OpCall, 3); got != before+1 {
		t.Fatalf("retransmission not forwarded to leader: %d -> %d", before, got)
	}
}

func TestTotalOrderLeaderTakeover(t *testing.T) {
	net := newMemNet()
	oracle := member.NewOracle()
	srv := &recordingServer{}
	// Node 2 will become leader of {1,2,3} once 3 fails.
	n := addNode(t, net, 2, nodeOpts{server: srv, membership: oracle},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
		&UniqueExecution{}, &TotalOrder{})
	group := msg.NewGroup(1, 2, 3)

	// A call arrives but the (old) leader never orders it.
	n.fw.HandleNet(callMsg(100, 1, 1, group, "c1"))
	if len(srv.executed()) != 0 {
		t.Fatal("executed without an order")
	}

	// Leader 3 fails: node 2 takes over and assigns the pending call.
	oracle.Fail(3)
	deadline := time.Now().Add(time.Second)
	for len(srv.executed()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("new leader did not sequence the pending call")
		}
		time.Sleep(time.Millisecond)
	}
	if got := srv.executed(); got[0] != "c1" {
		t.Fatalf("executed %v", got)
	}
}

func TestTotalOrderAgreementPreservesOldLeaderAssignments(t *testing.T) {
	// The scenario the paper's omitted agreement phase exists for: the old
	// leader assigned orders that reached only SOME members before it
	// crashed. Without agreement, the new leader would renumber those
	// calls first-come-first-served and replicas could execute them in
	// different orders. With the query round, the new leader learns the
	// old assignments from the survivor that has them and preserves them.
	net := newMemNet()
	oracle := member.NewOracle()
	srv1 := &recordingServer{}
	srv2 := &recordingServer{}
	protos := func(s Server) []MicroProtocol {
		return []MicroProtocol{
			&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
			&UniqueExecution{},
			&TotalOrder{NudgeInterval: 5 * time.Millisecond, AgreementDelay: 15 * time.Millisecond},
		}
	}
	n1 := addNode(t, net, 1, nodeOpts{server: srv1, membership: oracle}, protos(srv1)...)
	n2 := addNode(t, net, 2, nodeOpts{server: srv2, membership: oracle}, protos(srv2)...)
	group := msg.NewGroup(1, 2, 3) // leader is 3 (never attached: "crashed")

	// Both members hold calls X (client 100) and Y (client 101), neither
	// ordered yet from their perspective...
	x := callMsg(100, 1, 1, group, "X")
	y := callMsg(101, 1, 1, group, "Y")
	for _, n := range []*testNode{n1, n2} {
		n.fw.HandleNet(x.Clone())
		n.fw.HandleNet(y.Clone())
	}
	// ...but the old leader's ORDER messages (Y first, then X!) reached
	// member 1 ONLY — and only the one for Y before the crash.
	n1.fw.HandleNet(&msg.NetMsg{Type: msg.OpOrder, ID: 1, Client: 101, Server: group, Sender: 3, Order: 1})
	waitUntil(t, func() bool { return len(srv1.executed()) == 1 })
	if got := srv1.executed(); got[0] != "Y" {
		t.Fatalf("member 1 executed %v", got)
	}
	if len(srv2.executed()) != 0 {
		t.Fatal("member 2 executed without an order")
	}

	// The leader fails. Member 2 becomes leader; without agreement it
	// would assign order 1 to whichever call nudges first (possibly X),
	// diverging from member 1's history [Y, ...].
	oracle.Fail(3)

	waitUntil(t, func() bool {
		return len(srv1.executed()) == 2 && len(srv2.executed()) == 2
	})
	got1, got2 := srv1.executed(), srv2.executed()
	if got1[0] != "Y" || got1[1] != "X" {
		t.Fatalf("member 1 executed %v, want [Y X]", got1)
	}
	if got2[0] != "Y" || got2[1] != "X" {
		t.Fatalf("member 2 executed %v, want [Y X] (old leader's assignment preserved)", got2)
	}
}

func TestTotalOrderDuplicateOfExecutedCallDropped(t *testing.T) {
	net := newMemNet()
	srv := &recordingServer{}
	n := addNode(t, net, 3, nodeOpts{server: srv},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
		&UniqueExecution{}, &TotalOrder{})
	group := msg.NewGroup(3)

	m := callMsg(100, 1, 1, group, "c1")
	n.fw.HandleNet(m.Clone())
	if len(srv.executed()) != 1 {
		t.Fatal("first delivery did not execute")
	}
	// Duplicate: Unique Execution resends the retained result (deviation
	// D8 keeps that path alive); no re-execution, no leftover record.
	before := net.countSent(msg.OpReply, 100)
	n.fw.HandleNet(m.Clone())
	if len(srv.executed()) != 1 {
		t.Fatal("duplicate re-executed under total order")
	}
	if got := net.countSent(msg.OpReply, 100); got != before+1 {
		t.Fatalf("retained result not resent under total order: %d", got-before)
	}
	if n.fw.PendingServerCalls() != 0 {
		t.Fatal("duplicate left a record")
	}
}
