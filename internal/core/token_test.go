package core

import (
	"slices"
	"sync"
	"testing"
	"time"

	"mrpc/internal/clock"
	"mrpc/internal/msg"
	"mrpc/internal/proc"
)

// TestTokenNewIncarnationKillsOldGeneration: every executing call of the
// old generation shares one kill token, so a newer incarnation's first call
// kills them all and suppresses their replies, while the new generation's
// calls run to normal replies.
func TestTokenNewIncarnationKillsOldGeneration(t *testing.T) {
	net := newMemNet()
	net.async = true
	gate := newGateServer()
	n := addNode(t, net, 1, nodeOpts{server: gate},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
		&TerminateOrphan{})
	group := msg.NewGroup(1)
	var wg sync.WaitGroup
	defer wg.Wait()

	for i, tag := range []string{"old1", "old2", "old3"} {
		deliverAsync(&wg, n, callMsg(100, mkID(1, int64(i+1)), 1, group, tag))
	}
	for i := 0; i < 3; i++ {
		enteredOrFail(t, gate)
	}
	deliverAsync(&wg, n, callMsg(100, mkID(2, 1), 2, group, "new1"))
	deliverAsync(&wg, n, callMsg(100, mkID(2, 2), 2, group, "new2"))
	enteredOrFail(t, gate)
	enteredOrFail(t, gate)

	waitUntil(t, func() bool { return len(gate.killedTags()) == 3 })
	killed := gate.killedTags()
	slices.Sort(killed)
	if !slices.Equal(killed, []string{"old1", "old2", "old3"}) {
		t.Fatalf("killed %v, want the three old-generation calls", killed)
	}
	gate.release <- struct{}{}
	gate.release <- struct{}{}
	wg.Wait()
	net.wait()
	if got := gate.killedTags(); len(got) != 3 {
		t.Fatalf("killed %v: a new-generation call was touched", got)
	}
	if got := countReplies(net, 100); got != 2 {
		t.Fatalf("replies = %d, want 2 (old generation suppressed)", got)
	}
	if n.fw.PendingServerCalls() != 0 {
		t.Fatal("records left behind")
	}
}

// TestTokenProbeKillThenRetransmissionExecutes: a probe kill forgets the
// client's token, so a retransmission of the same incarnation's call runs
// under a fresh one and replies.
func TestTokenProbeKillThenRetransmissionExecutes(t *testing.T) {
	clk := clock.NewSim()
	net := newMemNet()
	net.async = true
	n, gate := probedNode(t, net, clk)
	group := msg.NewGroup(1)
	call := callMsg(100, mkID(1, 1), 1, group, "work")
	var wg sync.WaitGroup
	defer wg.Wait()

	deliverAsync(&wg, n, call.Clone())
	enteredOrFail(t, gate)
	for i := 0; i < 4; i++ {
		clk.Advance(10 * time.Millisecond)
		net.wait()
	}
	wg.Wait()
	if got := gate.killedTags(); len(got) != 1 {
		t.Fatalf("probe kill: killed %v", got)
	}
	net.wait()

	deliverAsync(&wg, n, call.Clone())
	enteredOrFail(t, gate)
	gate.release <- struct{}{}
	wg.Wait()
	net.wait()
	if got := net.countSent(msg.OpReply, 100); got != 1 {
		t.Fatalf("replies = %d, want 1 (the retransmission's)", got)
	}
	if got := gate.completed(); len(got) != 1 {
		t.Fatalf("completed %v, killed %v: the retransmission did not run", got, gate.killedTags())
	}
}

// TestTokenDropHeldCallSparesSibling: dropping a held call does not kill
// its generation's shared token, so an executing sibling replies normally.
func TestTokenDropHeldCallSparesSibling(t *testing.T) {
	net := newMemNet()
	gate := newGateServer()
	n := addNode(t, net, 1, nodeOpts{server: gate}, replicaProtos(true)...)
	group := msg.NewGroup(1, 2, 3) // leader 3 is elsewhere: calls wait for ORDER

	exec := callMsg(100, mkID(1, 1), 1, group, "exec")
	held := callMsg(100, mkID(1, 2), 1, group, "held")
	n.fw.HandleNet(exec)
	n.fw.HandleNet(held)
	var wg sync.WaitGroup
	defer wg.Wait()
	deliverAsync(&wg, n, &msg.NetMsg{Type: msg.OpOrder, ID: exec.ID, Client: 100,
		Server: group, Sender: 3, Inc: 1, Order: 1})
	enteredOrFail(t, gate)

	if !n.fw.DropServerCall(held.Key()) {
		t.Fatal("held call not dropped")
	}
	gate.release <- struct{}{}
	wg.Wait()
	if got := gate.completed(); len(got) != 1 || got[0] != "exec" {
		t.Fatalf("completed %v, killed %v; want the sibling to finish", got, gate.killedTags())
	}
	if got := net.countSent(msg.OpReply, 100); got != 1 {
		t.Fatalf("replies = %d, want the sibling's", got)
	}
}

// TestTokenRegistryGrowsPerIncarnation: the registry holds one token per
// generation, however many calls it served.
func TestTokenRegistryGrowsPerIncarnation(t *testing.T) {
	net := newMemNet()
	n := addNode(t, net, 1, nodeOpts{server: echoServer()},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
		&TerminateOrphan{})
	group := msg.NewGroup(1)
	for seq := int64(1); seq <= 10000; seq++ {
		n.fw.HandleNet(callMsg(100, mkID(1, seq), 1, group, "x"))
	}
	if got := n.fw.threads.Live(); got != 1 {
		t.Fatalf("registry holds %d tokens after 10000 calls, want 1", got)
	}
	if got := net.countSent(msg.OpReply, 100); got != 10000 {
		t.Fatalf("replies = %d", got)
	}
}

// TestDeliveredCallAllocs guards the server half of a call: a delivered
// CALL of a known client and group allocates only its reply message.
// Before calls shared their generation's kill token it also allocated a
// thread (2 allocs).
func TestDeliveredCallAllocs(t *testing.T) {
	skipAllocGuard(t)
	if got := orderedDeliveryAllocs(t, 1, false); got != 1 {
		t.Fatalf("a delivered CALL allocates %v objects, want 1 (the reply)", got)
	}
}

// TestSerialQueueAllocs: Serial Execution queues a call that becomes
// eligible while another executes, and the queue reuses its array — the
// composite allocates no more per call with it than without it.
func TestSerialQueueAllocs(t *testing.T) {
	skipAllocGuard(t)
	with, without := serialNestedAllocs(t, true), serialNestedAllocs(t, false)
	if with != without {
		t.Fatalf("Serial Execution costs %v allocs per queued call, want 0 (%v with, %v without)",
			with-without, with, without)
	}
}

// serialNestedAllocs is the allocations of one outer call whose procedure
// delivers an inner call while it executes: under Serial Execution the
// inner call waits in the serial queue, otherwise it runs nested.
func serialNestedAllocs(t *testing.T, serial bool) float64 {
	const warm, runs = 256, 2000
	group := msg.NewGroup(1, 2, 3)
	var inner []*msg.NetMsg
	var outer []*msg.NetMsg
	for seq := uint32(1); seq <= 2*(warm+runs+1); seq += 2 {
		outer = append(outer, markedCall(callID(1, seq), callID(1, seq), group, "o"))
		inner = append(inner, markedCall(callID(1, seq+1), callID(1, seq), group, "i"))
	}
	var fw *Framework
	next := 0
	srv := ServerFunc(func(_ *proc.Thread, _ msg.OpID, args []byte) []byte {
		if args[0] == 'o' {
			fw.HandleNet(inner[next])
		}
		return args
	})
	protos := replicaProtos(false)
	if serial {
		protos = append(protos, &SerialExecution{})
	}
	fw = newBareNode(t, 1, discardNet{}, srv, protos)
	deliver := func() {
		fw.HandleNet(outer[next])
		next++
	}
	for next < warm {
		deliver()
	}
	return testing.AllocsPerRun(runs, deliver)
}

// countReplies counts the replies sent to client, inside batch frames too:
// replies that leave concurrently coalesce into one frame.
func countReplies(net *memNet, client msg.ProcID) int {
	n := 0
	for _, s := range net.sentLog() {
		if s.To != client {
			continue
		}
		if s.M.Type == msg.OpReply {
			n++
		}
		for _, sub := range s.M.Batch {
			if sub.Type == msg.OpReply {
				n++
			}
		}
	}
	return n
}

// deliverAsync delivers m to n on its own goroutine, tracked by wg.
func deliverAsync(wg *sync.WaitGroup, n *testNode, m *msg.NetMsg) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		n.fw.HandleNet(m)
	}()
}

// enteredOrFail waits for the next execution to enter the gate server.
func enteredOrFail(t *testing.T, gate *gateServer) {
	t.Helper()
	select {
	case <-gate.entered:
	case <-time.After(2 * time.Second):
		t.Fatal("no call entered execution")
	}
}

// skipAllocGuard skips allocation guards where the pools do not pool.
func skipAllocGuard(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled objects at random")
	}
	if _, plain := any(netEventPool).(*sync.Pool); !plain {
		t.Skip("the mrpcdebug pool wrapper records every pooled object in a map")
	}
}

// captureNet records every message sent, uncopied, so a test sees exactly
// what the wire would carry.
type captureNet struct {
	mu   sync.Mutex
	sent []*msg.NetMsg
}

func (c *captureNet) Push(_ msg.ProcID, m *msg.NetMsg) { c.Multicast(nil, m) }

func (c *captureNet) Multicast(_ msg.Group, m *msg.NetMsg) {
	c.mu.Lock()
	c.sent = append(c.sent, m)
	c.mu.Unlock()
}

// TestClientGroupSnapshot: calls to the same members share one frozen
// snapshot of the group, a caller mutating its slice after the call changes
// neither the record nor the wire message, and alternating groups each get
// their own members.
func TestClientGroupSnapshot(t *testing.T) {
	net := &captureNet{}
	fw := newBareNode(t, 100, net, nil, []MicroProtocol{
		&RPCMain{}, &AsynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
	})
	call := func(g msg.Group) (msg.Group, msg.Group) {
		t.Helper()
		um := fw.Call(1, []byte("x"), g)
		var server msg.Group
		if !fw.WithClient(um.ID, func(r *ClientRecord) { server = r.Server }) {
			t.Fatal("no client record")
		}
		net.mu.Lock()
		wire := net.sent[len(net.sent)-1].Server
		net.mu.Unlock()
		return server, wire
	}

	mine := msg.NewGroup(1, 2, 3)
	rec1, wire1 := call(mine)
	mine[0] = 9
	if !rec1.Equal(msg.NewGroup(1, 2, 3)) || !wire1.Equal(msg.NewGroup(1, 2, 3)) {
		t.Fatalf("caller's mutation leaked: record %v, wire %v", rec1, wire1)
	}
	rec2, wire2 := call(msg.NewGroup(1, 2, 3))
	if &rec2[0] != &rec1[0] || !wire2.Equal(rec2) {
		t.Fatal("a call to the same members did not reuse the snapshot")
	}
	if rec, wire := call(mine); !rec.Equal(msg.Group{9, 2, 3}) || !wire.Equal(rec) {
		t.Fatalf("mutated group: record %v, wire %v", rec, wire)
	}

	a, b := msg.NewGroup(1, 2), msg.NewGroup(4, 5, 6)
	for i := 0; i < 6; i++ {
		g := a
		if i%2 == 1 {
			g = b
		}
		if rec, wire := call(g); !rec.Equal(g) || !wire.Equal(g) {
			t.Fatalf("call %d to %v: record %v, wire %v", i, g, rec, wire)
		}
	}
	if !rec1.Equal(msg.NewGroup(1, 2, 3)) {
		t.Fatalf("a later call rewrote an earlier snapshot: %v", rec1)
	}
}
