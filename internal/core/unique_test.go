package core

import (
	"testing"
	"time"

	"mrpc/internal/msg"
	"mrpc/internal/trace"
)

// uniqueServerNode builds a server with Unique Execution and a recording
// app, returning both.
func uniqueServerNode(t *testing.T, net *memNet) (*testNode, *recordingServer) {
	t.Helper()
	srv := &recordingServer{}
	n := addNode(t, net, 1, nodeOpts{server: srv},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
		&UniqueExecution{})
	return n, srv
}

// callID builds a call id of incarnation inc (D9).
func callID(inc msg.Incarnation, seq uint32) msg.CallID {
	return msg.CallID(int64(inc)<<32 | int64(seq))
}

// markedCall builds a Call from client 100 carrying low-water mark mark.
func markedCall(id, mark msg.CallID, group msg.Group, payload string) *msg.NetMsg {
	m := callMsg(100, id, callInc(id), group, payload)
	m.AckID = mark
	return m
}

func TestUniqueExecutionDropsDuplicateInProgressAndExecuted(t *testing.T) {
	net := newMemNet()
	n, srv := uniqueServerNode(t, net)
	group := msg.NewGroup(1)

	m := callMsg(100, 1, 1, group, "a")
	n.fw.HandleNet(m.Clone()) // executes synchronously
	if got := srv.executed(); len(got) != 1 {
		t.Fatalf("executed %v", got)
	}

	// Duplicate after execution: answered from the retained result, not
	// re-executed.
	before := net.countSent(msg.OpReply, 100)
	n.fw.HandleNet(m.Clone())
	if got := srv.executed(); len(got) != 1 {
		t.Fatalf("duplicate re-executed: %v", got)
	}
	if got := net.countSent(msg.OpReply, 100); got != before+1 {
		t.Fatalf("retained result not resent: %d replies, want %d", got, before+1)
	}
}

func TestUniqueExecutionAnswersRetransmissionAboveFloor(t *testing.T) {
	net := newMemNet()
	n, srv := uniqueServerNode(t, net)
	group := msg.NewGroup(1)
	id1, id2 := callID(1, 1), callID(1, 2)

	n.fw.HandleNet(markedCall(id1, id1, group, "one"))
	// Call 2 carries a mark that still covers call 1 (a lingering entry at
	// the client holds it), so call 1's response stays retained.
	n.fw.HandleNet(markedCall(id2, id1, group, "two"))

	before := net.countSent(msg.OpReply, 100)
	n.fw.HandleNet(markedCall(id1, id1, group, "one"))
	if got := srv.executed(); len(got) != 2 {
		t.Fatalf("retransmission re-executed: %v", got)
	}
	if got := net.countSent(msg.OpReply, 100); got != before+1 {
		t.Fatalf("retained result not resent: %d replies, want %d", got, before+1)
	}
	last := net.sentLog()[len(net.sentLog())-1].M
	if last.Type != msg.OpReply || last.ID != id1 || string(last.Args) != "one" {
		t.Fatalf("resent %v %q, want call 1's retained reply", last, last.Args)
	}
}

// TestUniqueExecutionDropsCopyBelowFloor replaces the per-reply ACK check:
// the client's mark is the acknowledgement, and a copy of a call below it is
// dropped without executing, answering or sequencing.
func TestUniqueExecutionDropsCopyBelowFloor(t *testing.T) {
	net := newMemNet()
	log := trace.NewLog()
	srv := &recordingServer{}
	n := addNode(t, net, 1, nodeOpts{server: srv, trace: log},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
		&UniqueExecution{})
	group := msg.NewGroup(1)
	id1, id2 := callID(1, 1), callID(1, 2)

	n.fw.HandleNet(markedCall(id1, id1, group, "one"))
	n.fw.HandleNet(markedCall(id2, id2, group, "two")) // floor passes call 1

	before := net.countSent(msg.OpReply, 100)
	n.fw.HandleNet(markedCall(id1, id1, group, "one"))
	if got := srv.executed(); len(got) != 2 {
		t.Fatalf("straggler below the floor re-executed: %v", got)
	}
	if got := net.countSent(msg.OpReply, 100); got != before {
		t.Fatalf("straggler below the floor answered: %d replies, want %d", got, before)
	}
	dropped := 0
	for _, e := range log.Events() {
		if e.Kind == trace.KDupDropped && e.ID == id1 {
			dropped++
		}
	}
	if dropped != 1 {
		t.Fatalf("KDupDropped for the straggler = %d, want 1", dropped)
	}
}

// TestUniqueExecutionSettledCallIsNeverSequenced: a settled copy of a
// sequenced call only re-announces the number it already has (the lost-ORDER
// recovery path a follower's nudge relies on) without executing again, and a
// call older than the grace span below the floor gets no number at all. The
// node leads a two-member group, so the re-announcement shows on the wire as
// an ORDER to the follower.
func TestUniqueExecutionSettledCallIsNeverSequenced(t *testing.T) {
	net := newMemNet()
	srv := &recordingServer{}
	n := addNode(t, net, 2, nodeOpts{server: srv},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
		&ReliableCommunication{RetransTimeout: time.Hour}, &UniqueExecution{},
		&TotalOrder{NudgeInterval: time.Hour})
	group := msg.NewGroup(1, 2)
	id1, id2 := callID(1, 1), callID(1, 2)

	n.fw.HandleNet(markedCall(id1, id1, group, "one"))
	n.fw.HandleNet(markedCall(id2, id2, group, "two"))
	n.fw.HandleNet(markedCall(id1, id1, group, "one"))
	log := net.sentLog()
	last := log[len(log)-1]
	if last.To != 1 || last.M.Type != msg.OpOrder || last.M.ID != id1 || last.M.Order != 1 {
		t.Fatalf("settled copy of call 1 sent %v to %d, want its ORDER re-announced as 1 to member 1", last.M, last.To)
	}

	// Call 3 never reached this member, and the floor is now further past
	// it than the grace span.
	far := callID(1, 3+graceSpan+1)
	n.fw.HandleNet(markedCall(far, far, group, "far"))
	orders := net.countSent(msg.OpOrder, 0)
	n.fw.HandleNet(markedCall(callID(1, 3), callID(1, 3), group, "three"))
	if got := net.countSent(msg.OpOrder, 0); got != orders {
		t.Fatalf("settled straggler sequenced: %d ORDER sends, want %d", got, orders)
	}
	got := srv.executed()
	if len(got) != 3 || got[0] != "one" || got[1] != "two" || got[2] != "far" {
		t.Fatalf("executed %v, want [one two far]", got)
	}
}

// TestUniqueExecutionAdmitsLateFirstCopyBelowFloor: without Reliable
// Communication the mark passes a call once the caller has collected it,
// while its first copy may still be on its way to a slow member. That copy
// executes once; its duplicates are dropped.
func TestUniqueExecutionAdmitsLateFirstCopyBelowFloor(t *testing.T) {
	net := newMemNet()
	n, srv := uniqueServerNode(t, net)
	group := msg.NewGroup(1)
	id1, id2 := callID(1, 1), callID(1, 2)

	n.fw.HandleNet(markedCall(id2, id2, group, "two")) // overtakes call 1
	n.fw.HandleNet(markedCall(id1, id1, group, "one"))
	n.fw.HandleNet(markedCall(id1, id1, group, "one"))
	got := srv.executed()
	if len(got) != 2 || got[0] != "two" || got[1] != "one" {
		t.Fatalf("executed %v, want [two one]", got)
	}
	if !n.fw.AlreadyExecuted(msg.CallKey{Client: 100, ID: id1}) {
		t.Fatal("the late copy is not reported executed")
	}
}

func TestUniqueExecutionNewIncarnationHasItsOwnFloor(t *testing.T) {
	net := newMemNet()
	n, srv := uniqueServerNode(t, net)
	group := msg.NewGroup(1)

	old49, old50 := callID(1, 49), callID(1, 50)
	n.fw.HandleNet(markedCall(old49, old49, group, "old-49"))
	n.fw.HandleNet(markedCall(old50, old50, group, "old-50"))

	// The recovered client numbers from 1 again under incarnation 2: its
	// sequence numbers are below the old floor but are not judged by it.
	fresh := callID(2, 1)
	n.fw.HandleNet(markedCall(fresh, fresh, group, "new-1"))

	// The old incarnation keeps its own floor: a straggler above it still
	// executes, a duplicate below it is dropped.
	n.fw.HandleNet(markedCall(callID(1, 51), old50, group, "old-51"))
	n.fw.HandleNet(markedCall(old49, old49, group, "old-49"))

	got := srv.executed()
	want := []string{"old-49", "old-50", "new-1", "old-51"}
	if len(got) != len(want) {
		t.Fatalf("executed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("executed %v, want %v", got, want)
		}
	}
}

func TestUniqueExecutionWindowsSurviveSwap(t *testing.T) {
	net := newMemNet()
	srv := &recordingServer{}
	u1 := &UniqueExecution{}
	n := addNode(t, net, 1, nodeOpts{server: srv},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{}, u1)
	group := msg.NewGroup(1)
	id := func(seq uint32) msg.CallID { return callID(1, seq) }

	n.fw.HandleNet(markedCall(id(1), id(1), group, "one"))
	n.fw.HandleNet(markedCall(id(2), id(2), group, "two"))
	n.fw.HandleNet(markedCall(id(3), id(2), group, "three"))

	// What Composite.Swap does for a replaced instance of the same protocol.
	u1.Detach(n.fw)
	u2 := &UniqueExecution{}
	if err := u2.Attach(n.fw); err != nil {
		t.Fatal(err)
	}
	u2.ImportState(u1.ExportState())

	before := net.countSent(msg.OpReply, 100)
	n.fw.HandleNet(markedCall(id(2), id(2), group, "two")) // above the floor: answered
	n.fw.HandleNet(markedCall(id(1), id(1), group, "one")) // below it: dropped
	if got := net.countSent(msg.OpReply, 100); got != before+1 {
		t.Fatalf("replies after swap = %d, want %d (one retained answer)", got, before+1)
	}
	n.fw.HandleNet(markedCall(id(4), id(4), group, "four"))
	if got := srv.executed(); len(got) != 4 {
		t.Fatalf("executed %v, want each of the four calls once", got)
	}
	if !n.fw.AlreadyExecuted(msg.CallKey{Client: 100, ID: id(2)}) {
		t.Fatal("a call below the imported floor is not reported executed")
	}
}

// TestUniqueExecutionWindowsStayBounded runs 10k sequential calls from each
// of two clients and checks that the server forgets settled calls: what it
// still holds per client is the calls in flight (none) plus the mark's lag
// (the last call, retained until the client's next call).
func TestUniqueExecutionWindowsStayBounded(t *testing.T) {
	net := newMemNet()
	u := &UniqueExecution{}
	rel := &ReliableCommunication{RetransTimeout: time.Hour}
	addNode(t, net, 1, nodeOpts{server: echoServer()},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{}, rel, u)
	group := msg.NewGroup(1)
	var clients []*testNode
	for _, id := range []msg.ProcID{100, 101} {
		clients = append(clients, addNode(t, net, id, nodeOpts{},
			&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
			&ReliableCommunication{RetransTimeout: time.Hour}, &UniqueExecution{}))
	}

	const calls = 10000
	for i := 0; i < calls; i++ {
		for _, c := range clients {
			um := c.fw.Call(1, []byte("x"), group)
			if um.Status != msg.StatusOK {
				t.Fatalf("call %d: status %v", i, um.Status)
			}
			PutUserMsg(um)
		}
	}

	u.mu.Lock()
	defer u.mu.Unlock()
	if len(u.windows) != 2 {
		t.Fatalf("windows = %d, want one per client", len(u.windows))
	}
	for k, w := range u.windows {
		held := 0
		for i := range w.ring {
			if w.ring[i].state != uniqueUnseen {
				held++
			}
		}
		if held > 1 || len(w.ring) > 8 {
			t.Fatalf("client %d: %d calls held over a span of %d after %d calls, want <= 1",
				k.client, held, len(w.ring), calls)
		}
		if w.base != calls {
			t.Fatalf("client %d: floor = %d, want %d (the last call's id)", k.client, w.base, calls)
		}
	}
	rel.mu.Lock()
	defer rel.mu.Unlock()
	for k, w := range rel.seen {
		if len(w.ring) > 8 {
			t.Fatalf("client %d: Reliable's receipt window spans %d", k.client, len(w.ring))
		}
	}
}

func TestUniqueExecutionClientStampsLowWaterMark(t *testing.T) {
	net := newMemNet()
	addNode(t, net, 1, nodeOpts{server: echoServer()},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
		&UniqueExecution{})
	client := addNode(t, net, 100, nodeOpts{},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
		&UniqueExecution{})

	for i := 0; i < 3; i++ {
		um := client.fw.Call(1, []byte("x"), msg.NewGroup(1))
		if um.Status != msg.StatusOK {
			t.Fatalf("status = %v", um.Status)
		}
	}
	if got := net.countSent(msg.OpAck, 0); got != 0 {
		t.Fatalf("ACK frames sent = %d, want 0 (the mark on the next call acknowledges)", got)
	}
	calls := 0
	for _, s := range net.sentLog() {
		if s.M.Type != msg.OpCall {
			continue
		}
		calls++
		// Sequential calls: everything before each call is settled.
		if s.M.AckID != s.M.ID {
			t.Fatalf("call %d carries mark %d, want its own id", s.M.ID, s.M.AckID)
		}
	}
	if calls != 3 {
		t.Fatalf("calls sent = %d, want 3", calls)
	}
}

func TestUniqueExecutionDistinctClientsSameID(t *testing.T) {
	// Two different clients may use the same call id (deviation D1): the
	// server must treat them as distinct calls.
	net := newMemNet()
	n, srv := uniqueServerNode(t, net)
	group := msg.NewGroup(1)

	n.fw.HandleNet(callMsg(100, 1, 1, group, "from-100"))
	n.fw.HandleNet(callMsg(101, 1, 1, group, "from-101"))
	if got := srv.executed(); len(got) != 2 {
		t.Fatalf("executed %v, want both clients' calls", got)
	}
}

func TestUniqueExecutionCompensatesOnLaterCancel(t *testing.T) {
	// If a later handler cancels the delivery (here: a stale incarnation
	// dropped by Terminate Orphan at the orphan priority — wait, orphan
	// runs BEFORE unique; use FIFO's stale-call drop instead), the
	// OldCalls entry must be removed so a retransmission can execute.
	net := newMemNet()
	srv := &recordingServer{}
	n := addNode(t, net, 1, nodeOpts{server: srv},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
		&UniqueExecution{}, &FIFOOrder{})
	group := msg.NewGroup(1)

	// Establish FIFO state: call 5 executes (next becomes 6).
	n.fw.HandleNet(callMsg(100, 5, 1, group, "five"))
	if got := srv.executed(); len(got) != 1 {
		t.Fatalf("executed %v", got)
	}

	// Call 4 arrives late: FIFO drops it (id < next) — cancelling the
	// occurrence AFTER Unique Execution recorded it. The compensation must
	// remove it from OldCalls; verify by checking the server sends nothing
	// and the call is NOT remembered as in-progress (a second delivery
	// behaves identically rather than being swallowed as a duplicate).
	m4 := callMsg(100, 4, 1, group, "four")
	n.fw.HandleNet(m4.Clone())
	n.fw.HandleNet(m4.Clone())
	if got := srv.executed(); len(got) != 1 {
		t.Fatalf("stale call executed: %v", got)
	}
	if n.fw.PendingServerCalls() != 0 {
		t.Fatal("dropped call left a server record")
	}
}
