package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mrpc/internal/clock"
	"mrpc/internal/event"
	"mrpc/internal/msg"
	"mrpc/internal/proc"
	"mrpc/internal/stable"
)

// mkID builds a call id the way a real client does (deviation D9): the
// incarnation in the upper bits, a dense sequence below.
func mkID(inc msg.Incarnation, seq int64) msg.CallID {
	return msg.CallID(int64(inc)<<32 | seq)
}

// retryUntilEntered redelivers m (modelling client retransmission) until
// the gate server admits an execution.
func retryUntilEntered(t *testing.T, n *testNode, gate *gateServer, m *msg.NetMsg) string {
	t.Helper()
	for i := 0; i < 200; i++ {
		go n.fw.HandleNet(m.Clone())
		select {
		case tag := <-gate.entered:
			return tag
		case <-time.After(5 * time.Millisecond):
		}
	}
	t.Fatal("call never admitted")
	return ""
}

func TestInterferenceAvoidanceDefersNewGeneration(t *testing.T) {
	net := newMemNet()
	net.async = true
	gate := newGateServer()
	n := addNode(t, net, 1, nodeOpts{server: gate},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
		&InterferenceAvoidance{})
	group := msg.NewGroup(1)

	// Old-generation call starts executing.
	go n.fw.HandleNet(callMsg(100, mkID(1, 1), 1, group, "old"))
	<-gate.entered

	// New-generation call while the old is pending: dropped.
	newCall := callMsg(100, mkID(2, 1), 2, group, "new")
	n.fw.HandleNet(newCall.Clone())
	if got := n.fw.PendingServerCalls(); got != 1 {
		t.Fatalf("pending = %d, want 1 (new-generation call dropped)", got)
	}

	// More old-generation calls are also refused now (starvation
	// avoidance: the entry is in the draining state).
	n.fw.HandleNet(callMsg(100, mkID(1, 2), 1, group, "old-late"))
	if got := n.fw.PendingServerCalls(); got != 1 {
		t.Fatalf("pending = %d; old-generation call admitted while draining", got)
	}

	// Old generation drains; the retransmitted new-generation call is now
	// admitted and executes.
	gate.release <- struct{}{}
	waitUntil(t, func() bool { return len(gate.completed()) == 1 })

	retryUntilEntered(t, n, gate, newCall)
	gate.release <- struct{}{}
	waitUntil(t, func() bool { return len(gate.completed()) == 2 })
	if got := gate.completed(); got[1] != "new" {
		t.Fatalf("completed %v", got)
	}
	net.wait()
}

func TestInterferenceAvoidanceDropsOldGenerationAfterSwitch(t *testing.T) {
	net := newMemNet()
	srv := &recordingServer{}
	n := addNode(t, net, 1, nodeOpts{server: srv},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
		&InterferenceAvoidance{})
	group := msg.NewGroup(1)

	n.fw.HandleNet(callMsg(100, mkID(2, 1), 2, group, "gen2"))  // admits generation 2
	n.fw.HandleNet(callMsg(100, mkID(1, 9), 1, group, "stale")) // generation 1: dropped
	if got := srv.executed(); len(got) != 1 || got[0] != "gen2" {
		t.Fatalf("executed %v, want [gen2]", got)
	}
}

func TestInterferenceAvoidanceUncountsCancelledCalls(t *testing.T) {
	// A duplicate admitted (counted) by IA and then cancelled by Unique
	// Execution must be uncounted — otherwise the generation would never
	// drain (deviation D6).
	net := newMemNet()
	net.async = true
	gate := newGateServer()
	n := addNode(t, net, 1, nodeOpts{server: gate},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
		&InterferenceAvoidance{}, &UniqueExecution{})
	group := msg.NewGroup(1)

	m := callMsg(100, mkID(1, 1), 1, group, "c1")
	go n.fw.HandleNet(m.Clone())
	<-gate.entered
	// Duplicate: counted by IA at priority 15, cancelled by Unique at 20.
	n.fw.HandleNet(m.Clone())

	gate.release <- struct{}{}
	waitUntil(t, func() bool { return len(gate.completed()) == 1 })
	net.wait()

	// If the count leaked, the generation switch would be deferred
	// forever. Verify a new generation is admitted (retransmission covers
	// the window before IA's reply handler decrements the count).
	retryUntilEntered(t, n, gate, callMsg(100, mkID(2, 1), 2, group, "gen2"))
	gate.release <- struct{}{}
	waitUntil(t, func() bool { return len(gate.completed()) == 2 })
	net.wait()
}

func TestTerminateOrphanKillsOldGeneration(t *testing.T) {
	net := newMemNet()
	net.async = true
	gate := newGateServer()
	n := addNode(t, net, 1, nodeOpts{server: gate},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
		&TerminateOrphan{})
	group := msg.NewGroup(1)
	var wg sync.WaitGroup
	defer wg.Wait()

	deliverAsync(&wg, n, callMsg(100, mkID(1, 1), 1, group, "orphan"))
	<-gate.entered

	// New incarnation arrives: the orphan is killed, the new call runs.
	deliverAsync(&wg, n, callMsg(100, mkID(2, 1), 2, group, "new"))
	<-gate.entered
	gate.release <- struct{}{}

	waitUntil(t, func() bool { return len(gate.killedTags()) == 1 })
	if got := gate.killedTags(); got[0] != "orphan" {
		t.Fatalf("killed %v", got)
	}
	waitUntil(t, func() bool { return len(gate.completed()) == 1 })
	if got := gate.completed(); got[0] != "new" {
		t.Fatalf("completed %v", got)
	}
	// The orphan's reply is suppressed: only the new call replied. Both
	// deliveries must have finished before the replies are counted.
	wg.Wait()
	net.wait()
	if got := net.countSent(msg.OpReply, 100); got != 1 {
		t.Fatalf("replies = %d, want 1 (orphan reply suppressed)", got)
	}
	if n.fw.PendingServerCalls() != 0 {
		t.Fatal("records left behind")
	}
}

func TestTerminateOrphanDropsStaleIncarnationCalls(t *testing.T) {
	net := newMemNet()
	srv := &recordingServer{}
	n := addNode(t, net, 1, nodeOpts{server: srv},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
		&TerminateOrphan{})
	group := msg.NewGroup(1)

	n.fw.HandleNet(callMsg(100, mkID(3, 1), 3, group, "inc3"))
	n.fw.HandleNet(callMsg(100, mkID(2, 9), 2, group, "stale"))
	if got := srv.executed(); len(got) != 1 || got[0] != "inc3" {
		t.Fatalf("executed %v", got)
	}
}

func TestSerialExecutionOneAtATime(t *testing.T) {
	net := newMemNet()
	net.async = true

	var cur, max atomic.Int32
	srv := ServerFunc(func(_ *proc.Thread, _ msg.OpID, args []byte) []byte {
		c := cur.Add(1)
		for {
			m := max.Load()
			if c <= m || max.CompareAndSwap(m, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return args
	})
	n := addNode(t, net, 1, nodeOpts{server: srv},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
		&SerialExecution{})
	group := msg.NewGroup(1)

	for i := 0; i < 16; i++ {
		n.fw.HandleNet(callMsg(100, msg.CallID(i+1), 1, group, fmt.Sprintf("c%d", i)))
	}
	net.wait()
	waitUntil(t, func() bool { return n.fw.PendingServerCalls() == 0 })
	if got := max.Load(); got != 1 {
		t.Fatalf("max concurrency = %d, want 1 under serial execution", got)
	}
	if !n.fw.SerialEnabled() {
		t.Fatal("SerialEnabled() = false")
	}
}

func TestConcurrentExecutionWithoutSerial(t *testing.T) {
	net := newMemNet()
	net.async = true
	gate := newGateServer()
	n := addNode(t, net, 1, nodeOpts{server: gate},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{})
	group := msg.NewGroup(1)

	go n.fw.HandleNet(callMsg(100, 1, 1, group, "a"))
	go n.fw.HandleNet(callMsg(100, 2, 1, group, "b"))
	// Both must enter concurrently (no serialization).
	<-gate.entered
	<-gate.entered
	gate.release <- struct{}{}
	gate.release <- struct{}{}
	waitUntil(t, func() bool { return len(gate.completed()) == 2 })
	net.wait()
}

func TestSerialExecutionWithTotalOrderNoDeadlock(t *testing.T) {
	// Regression test for the admission-order deadlock (deviation D3):
	// call A is admitted first but ordered second; with slot-at-delivery
	// semantics B would starve behind A forever.
	net := newMemNet()
	srv := &recordingServer{}
	n := addNode(t, net, 1, nodeOpts{server: srv},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
		&UniqueExecution{}, &SerialExecution{}, &TotalOrder{})
	group := msg.NewGroup(1, 3) // leader is 3, elsewhere

	n.fw.HandleNet(callMsg(100, 1, 1, group, "A")) // admitted first
	n.fw.HandleNet(callMsg(101, 1, 1, group, "B")) // admitted second
	// The leader ordered B before A.
	n.fw.HandleNet(&msg.NetMsg{Type: msg.OpOrder, ID: 1, Client: 101, Server: group, Sender: 3, Order: 1})
	n.fw.HandleNet(&msg.NetMsg{Type: msg.OpOrder, ID: 1, Client: 100, Server: group, Sender: 3, Order: 2})

	waitUntil(t, func() bool { return len(srv.executed()) == 2 })
	got := srv.executed()
	if got[0] != "B" || got[1] != "A" {
		t.Fatalf("executed %v, want [B A] (leader's order)", got)
	}
}

// checkpointState is a minimal Checkpointable for Atomic Execution tests.
type checkpointState struct {
	mu        sync.Mutex
	value     []byte
	snapshots int
	restores  int
}

func (c *checkpointState) Snapshot() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.snapshots++
	return append([]byte(nil), c.value...)
}

func (c *checkpointState) Restore(data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.restores++
	c.value = append([]byte(nil), data...)
	return nil
}

func (c *checkpointState) set(v []byte) {
	c.mu.Lock()
	c.value = append([]byte(nil), v...)
	c.mu.Unlock()
}

func (c *checkpointState) get() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.value...)
}

func TestAtomicExecutionCheckpointsAndRestores(t *testing.T) {
	net := newMemNet()
	store := stable.NewStore(clock.NewReal(), 0)
	cell := &stable.Cell{}
	state := &checkpointState{}

	srv := ServerFunc(func(_ *proc.Thread, _ msg.OpID, args []byte) []byte {
		state.set(args)
		return args
	})
	n := addNode(t, net, 1, nodeOpts{server: srv},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
		&SerialExecution{},
		&AtomicExecution{Store: store, Cell: cell, State: state})
	group := msg.NewGroup(1)

	n.fw.HandleNet(callMsg(100, 1, 1, group, "v1"))
	if _, ok := cell.Get(); !ok {
		t.Fatal("no checkpoint recorded after the call")
	}
	if store.Writes() != 1 {
		t.Fatalf("writes = %d", store.Writes())
	}

	n.fw.HandleNet(callMsg(100, 2, 1, group, "v2"))
	if store.Writes() != 2 {
		t.Fatalf("writes = %d", store.Writes())
	}
	// The superseded checkpoint is released: only one block remains.
	addr, _ := cell.Get()
	if _, err := store.Load(addr); err != nil {
		t.Fatalf("latest checkpoint unreadable: %v", err)
	}

	// Crash: volatile state perturbed, recovery restores the checkpoint.
	state.set([]byte("garbage"))
	n.site.Crash()
	n.site.Recover()
	n.fw.Recover()
	if got := string(state.get()); got != "v2" {
		t.Fatalf("state after recovery = %q, want v2", got)
	}
	if state.restores != 1 {
		t.Fatalf("restores = %d", state.restores)
	}
}

func TestAtomicExecutionRecoveryWithoutCheckpoint(t *testing.T) {
	net := newMemNet()
	store := stable.NewStore(clock.NewReal(), 0)
	cell := &stable.Cell{}
	state := &checkpointState{}
	n := addNode(t, net, 1, nodeOpts{server: echoServer()},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
		&SerialExecution{},
		&AtomicExecution{Store: store, Cell: cell, State: state})

	// Recovery before any checkpoint: must not panic or restore.
	n.fw.Recover()
	if state.restores != 0 {
		t.Fatalf("restores = %d, want 0", state.restores)
	}
}

func TestAtomicExecutionRequiresDeps(t *testing.T) {
	net := newMemNet()
	site := proc.NewSite(1)
	fw, err := NewFramework(Options{
		Site: site,
		Bus:  event.New(clock.NewReal()),
		Net:  memEP{n: net},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	if err := (&AtomicExecution{}).Attach(fw); err == nil {
		t.Fatal("AtomicExecution.Attach accepted nil deps")
	}
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never satisfied")
		}
		time.Sleep(200 * time.Microsecond)
	}
}
