package core

import (
	"encoding/binary"
	"runtime"
	"sync"
	"testing"
	"time"

	"mrpc/internal/clock"
	"mrpc/internal/member"
	"mrpc/internal/msg"
)

// windowStats reports a member's order table: its base, the span from the
// base to its next number, the length of its ring and its index size.
func (to *TotalOrder) windowStats() (base, span int64, ring, index int) {
	st := to.st
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.entries.base, st.nextOrder - st.entries.base, len(st.entries.ring), len(st.index)
}

// holding reports what a member holds for calls: calls waiting for a
// number, calls held in their entry, and whether key has an assignment.
func (to *TotalOrder) holding(key msg.CallKey) (waiting, held int, assigned bool) {
	st := to.st
	st.mu.Lock()
	defer st.mu.Unlock()
	for i := range st.entries.ring {
		if st.entries.ring[i].held {
			held++
		}
	}
	_, assigned = st.index[key]
	return len(st.waiting), held, assigned
}

// stableNudge is the nudge interval of the pruned-group tests; one tick of
// the simulated clock by it fires every member's nudge once.
const stableNudge = time.Millisecond

// prunedGroup is a three-replica ordered group {1, 2, 3} (leader 3) and a
// client 100 on a copy-free synchronous network, with every timer on one
// simulated clock.
type prunedGroup struct {
	clk    *clock.Sim
	group  msg.Group
	tos    []*TotalOrder
	client *Framework
}

func newPrunedGroup(tb testing.TB) *prunedGroup {
	tb.Helper()
	g := &prunedGroup{clk: clock.NewSim(), group: msg.NewGroup(1, 2, 3)}
	net := directNet{}
	for _, id := range g.group {
		to := &TotalOrder{NudgeInterval: stableNudge}
		g.tos = append(g.tos, to)
		net[id] = newClockedNode(tb, id, g.clk, directEP{net}, returnArgs, append(replicaProtos(false), to))
	}
	g.client = newClockedNode(tb, 100, g.clk, directEP{net}, nil, replicaProtos(false))
	net[100] = g.client
	return g
}

// run makes n synchronous calls and ticks the nudge after every tickEvery.
func (g *prunedGroup) run(tb testing.TB, n, tickEvery int) {
	tb.Helper()
	args := []byte("x")
	for i := 1; i <= n; i++ {
		um := g.client.Call(1, args, g.group)
		if um.Status != msg.StatusOK {
			tb.Fatalf("call %d: %v", i, um.Status)
		}
		PutUserMsg(um)
		if i%tickEvery == 0 {
			g.clk.Advance(stableNudge)
		}
	}
}

// TestTotalOrderWindowStaysBounded: with the followers reporting on every
// nudge tick, each member's order table (its span, its ring and its key
// index) stays under one constant however many calls the group has ordered.
func TestTotalOrderWindowStaysBounded(t *testing.T) {
	short, long := 10_000, 100_000
	if testing.Short() || raceEnabled {
		short, long = 1_000, 10_000
	}
	const tickEvery, bound = 100, 1024
	g := newPrunedGroup(t)
	check := func(calls int) {
		t.Helper()
		for i, to := range g.tos {
			base, span, ring, index := to.windowStats()
			t.Logf("after %d calls, member %d: base %d, span %d, ring %d, index %d", calls, i+1, base, span, ring, index)
			if span > bound || ring > bound || index > bound {
				t.Fatalf("after %d calls member %d keeps span %d, ring %d, index %d; want each at most %d",
					calls, i+1, span, ring, index, bound)
			}
		}
	}
	g.run(t, short, tickEvery)
	check(short)
	g.run(t, long-short, tickEvery)
	check(long)
}

// BenchmarkTotalOrderPrunedCall is BenchmarkTotalOrderCall/ordered with the
// followers reporting, and so every member pruning, once every 100 calls.
func BenchmarkTotalOrderPrunedCall(b *testing.B) {
	g := newPrunedGroup(b)
	g.run(b, 1000, 100)
	b.ReportAllocs()
	b.ResetTimer()
	g.run(b, b.N, 100)
}

// memGroup is a three-replica ordered group {1, 2, 3} (leader 3) with
// Reliable Communication and a client 100 with acceptance accept, on memNet
// with every timer on one simulated clock. The client retransmits every
// fourth nudge tick, so a member that has not replied acknowledges the call
// and the client's low-water mark moves on.
type memGroup struct {
	clk    *clock.Sim
	net    *memNet
	group  msg.Group
	nodes  []*testNode
	tos    []*TotalOrder
	srvs   []*recordingServer
	client *testNode
}

func newMemGroup(t *testing.T, accept int, ms member.Service) *memGroup {
	t.Helper()
	g := &memGroup{clk: clock.NewSim(), net: newMemNet(), group: msg.NewGroup(1, 2, 3)}
	for _, id := range g.group {
		srv := &recordingServer{}
		to := &TotalOrder{NudgeInterval: stableNudge, AgreementDelay: 3 * stableNudge}
		g.nodes = append(g.nodes, addNode(t, g.net, id, nodeOpts{server: srv, membership: ms, clk: g.clk},
			&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
			&ReliableCommunication{RetransTimeout: time.Hour}, &UniqueExecution{}, to))
		g.tos = append(g.tos, to)
		g.srvs = append(g.srvs, srv)
	}
	g.client = addNode(t, g.net, 100, nodeOpts{membership: ms, clk: g.clk},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: accept}, &Collation{},
		&ReliableCommunication{RetransTimeout: 4 * stableNudge}, &UniqueExecution{})
	return g
}

// run makes n synchronous calls and ticks the nudge after every tickEvery.
func (g *memGroup) run(t *testing.T, n, tickEvery int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		if um := g.client.fw.Call(1, []byte("x"), g.group); um.Status != msg.StatusOK {
			t.Fatalf("call %d: %v", i, um.Status)
		}
		if i%tickEvery == 0 {
			g.clk.Advance(stableNudge)
		}
	}
}

// TestTotalOrderLostOrderAfterClientSettled: follower 1 loses the ORDER of
// call X while members 2 and 3 complete it (acceptance 2). The client's
// low-water mark then passes X and hundreds more calls execute at 2 and 3,
// held at 1 behind X. Follower 1's position holds the group-stable entry at
// X's, so when its nudge finally reaches the leader, the leader still knows
// X and re-announces X's original number, and all three members execute one
// order. Pruning by the client's mark instead would forget X at the leader
// and wedge follower 1.
func TestTotalOrderLostOrderAfterClientSettled(t *testing.T) {
	g := newMemGroup(t, 2, nil)
	var (
		mu        sync.Mutex
		armed     bool
		lost      msg.CallID
		lostOrder int64
	)
	g.net.setHook(func(to msg.ProcID, m *msg.NetMsg) bool {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case armed && lost == 0 && to == 1 && m.Type == msg.OpOrder:
			lost, lostOrder = m.ID, m.Order
			return true
		case armed && to == 3 && m.Type == msg.OpCall && m.ID == lost:
			return true // follower 1's nudge for X
		}
		return false
	})
	g.net.setLogging(false)
	g.run(t, 4, 2)
	mu.Lock()
	armed = true
	mu.Unlock()
	const after = 300
	g.run(t, 1+after, 20)

	if w := g.client.fw.LowWater(); w <= lost {
		t.Fatalf("the client's mark %d has not passed X %d", w, lost)
	}
	if got := len(g.srvs[0].executed()); got != 4 {
		t.Fatalf("follower 1 executed %d calls while missing X's ORDER, want 4", got)
	}
	base, _, _, _ := g.tos[2].windowStats()
	if base <= 1 || base > lostOrder {
		t.Fatalf("leader's base %d; want it above 1 and at most X's entry %d", base, lostOrder)
	}

	mu.Lock()
	armed = false
	mu.Unlock()
	g.net.setLogging(true)
	g.clk.Advance(stableNudge)
	var reannounced []int64
	for _, s := range g.net.sentLog() {
		if s.To == 1 && s.M.Type == msg.OpOrder && s.M.ID == lost {
			reannounced = append(reannounced, s.M.Order)
		}
	}
	if len(reannounced) != 1 || reannounced[0] != lostOrder {
		t.Fatalf("follower 1 got X's ORDER as %v, want X's original number %d", reannounced, lostOrder)
	}
	sameExecutions(t, g.srvs, 5+after)
}

// failoverAfterPrune orders n calls with a nudge tick every 100, crashes
// the leader and lets member 2 take over. It returns the size of member
// 1's ORDER_INFO payload and checks that the new leader numbers a fresh
// call above every earlier assignment.
func failoverAfterPrune(t *testing.T, n int) int {
	oracle := member.NewOracle()
	g := newMemGroup(t, 2, oracle)
	g.net.setLogging(false)
	g.run(t, n, 100)

	// Crash the leader: nothing reaches it any more and its timers stop.
	g.net.setHook(func(to msg.ProcID, _ *msg.NetMsg) bool { return to == 3 })
	g.nodes[2].fw.Close()
	g.net.setLogging(true)
	oracle.Fail(3)
	size := -1
	for _, s := range g.net.sentLog() {
		if s.From == 1 && s.To == 2 && s.M.Type == msg.OpOrderInfo && len(s.M.Args) > 0 {
			size = len(s.M.Args)
		}
	}
	if size < 0 {
		t.Fatal("member 1 answered no ORDER_QUERY")
	}
	g.clk.Advance(3 * stableNudge) // the agreement round ends

	g.net.setLogging(true)
	if um := g.client.fw.Call(1, []byte("x"), g.group); um.Status != msg.StatusOK {
		t.Fatalf("call after failover: %v", um.Status)
	}
	var orders []int64
	for _, s := range g.net.sentLog() {
		if s.From == 2 && s.M.Type == msg.OpOrder {
			orders = append(orders, s.M.Order)
		}
	}
	if len(orders) == 0 || orders[len(orders)-1] <= int64(n) {
		t.Fatalf("new leader numbered the fresh call %v, want above %d", orders, n)
	}
	sameExecutions(t, g.srvs[:2], n+1)
	return size
}

// TestTotalOrderFailoverAfterPrune: after pruning, a new leader's
// ORDER_QUERY is answered with a base and a window whose size does not
// depend on how many calls the group has ordered, and the new leader still
// numbers above every assignment.
func TestTotalOrderFailoverAfterPrune(t *testing.T) {
	short, long := 1_000, 10_000
	if testing.Short() || raceEnabled {
		short, long = 300, 3_000
	}
	a, b := failoverAfterPrune(t, short), failoverAfterPrune(t, long)
	t.Logf("ORDER_INFO after %d calls: %d bytes; after %d calls: %d bytes", short, a, long, b)
	if a != b {
		t.Fatalf("ORDER_INFO grew with history: %d bytes after %d calls, %d after %d", a, short, b, long)
	}
}

// TestTotalOrderPrunedDuplicateNotSequenced: a duplicate CALL of a call
// whose assignment every member has pruned is dropped at the leader and at
// a follower: the leader gives it no number, and neither member holds it.
// A stale ORDER for the pruned entry is not recorded again.
func TestTotalOrderPrunedDuplicateNotSequenced(t *testing.T) {
	g := newMemGroup(t, AcceptAll, nil)
	var (
		mu    sync.Mutex
		first *msg.NetMsg
		order *msg.NetMsg
	)
	g.net.setHook(func(to msg.ProcID, m *msg.NetMsg) bool {
		mu.Lock()
		defer mu.Unlock()
		if first == nil && to == 3 && m.Type == msg.OpCall {
			first = m.Clone()
		}
		if order == nil && to == 1 && m.Type == msg.OpOrder {
			order = m.Clone()
		}
		return false
	})
	g.net.setLogging(false)
	const calls = 300
	g.run(t, calls, 20)
	g.net.setHook(nil)
	key := first.Key()
	for i, to := range g.tos {
		if _, _, assigned := to.holding(key); assigned {
			t.Fatalf("member %d still holds the first call's assignment", i+1)
		}
	}

	g.net.setLogging(true)
	for _, id := range []msg.ProcID{3, 1} {
		to := g.tos[id-1]
		_, span, _, _ := to.windowStats()
		g.nodes[id-1].fw.HandleNet(first.Clone())
		if id == 1 {
			g.nodes[0].fw.HandleNet(order.Clone())
		}
		waiting, held, assigned := to.holding(key)
		if _, after, _, _ := to.windowStats(); after != span || waiting != 0 || held != 0 || assigned {
			t.Fatalf("member %d: span %d -> %d, %d waiting, %d held, assigned %v after the duplicate",
				id, span, after, waiting, held, assigned)
		}
	}
	if got := g.net.countFrom(msg.OpOrder, 3); got != 0 {
		t.Fatalf("the leader sent %d ORDERs for the duplicate", got)
	}
	sameExecutions(t, g.srvs, calls)
}

// TestOrderInfoRoundTrip: ORDER_INFO carries the base and the window in
// entry order.
func TestOrderInfoRoundTrip(t *testing.T) {
	st := &totalState{index: make(map[msg.CallKey]int64), nextOrder: 1, nextEntry: 1}
	st.entries.base = 5
	for _, e := range []int64{9, 6, 7} {
		if !st.recordLocked(msg.CallKey{Client: 100, ID: msg.CallID(e * 10)}, e) {
			t.Fatalf("entry %d not recorded", e)
		}
	}
	data := st.encodeOrdersLocked()
	if len(data) != orderInfoHeader+3*orderInfoEntry {
		t.Fatalf("payload %d bytes", len(data))
	}
	base, orders, ok := decodeOrders(data)
	if !ok || base != 5 || len(orders) != 3 {
		t.Fatalf("decoded base %d, %v, ok %v", base, orders, ok)
	}
	for i, e := range []int64{6, 7, 9} {
		if orders[i].ord != e || orders[i].key.ID != msg.CallID(e*10) {
			t.Fatalf("assignment %d is %+v, want entry %d", i, orders[i], e)
		}
	}
	if st.recordLocked(msg.CallKey{Client: 100, ID: 1}, 4) {
		t.Fatal("an entry below the base was recorded")
	}
}

// TestOrderInfoCorruptCountAllocBound: an ORDER_INFO whose entry count
// exceeds its payload is rejected before anything is sized by the count.
func TestOrderInfoCorruptCountAllocBound(t *testing.T) {
	for _, count := range []uint32{4096, 1 << 20, 1<<32 - 1} {
		bad := make([]byte, orderInfoHeader+orderInfoEntry)
		binary.BigEndian.PutUint32(bad[8:], count)
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, _, ok := decodeOrders(bad); ok {
				t.Fatalf("count %d accepted", count)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 64 {
			t.Fatalf("count %d: rejected decode allocated %d bytes from %d input bytes", count, per, len(bad))
		}
	}
}

// FuzzDecodeOrders: arbitrary bytes never panic the ORDER_INFO decoder, and
// an accepted payload yields exactly the assignments its length holds, so
// the allocation is bounded by the input size.
func FuzzDecodeOrders(f *testing.F) {
	st := &totalState{index: make(map[msg.CallKey]int64), nextOrder: 1, nextEntry: 1}
	st.entries.base = 1
	f.Add(st.encodeOrdersLocked())
	for e := int64(1); e <= 3; e++ {
		st.recordLocked(msg.CallKey{Client: 7, ID: msg.CallID(e)}, e)
	}
	good := st.encodeOrdersLocked()
	f.Add(good)
	f.Add(good[:len(good)-1])
	huge := append([]byte(nil), good[:orderInfoHeader]...)
	binary.BigEndian.PutUint32(huge[8:], 1<<31)
	f.Add(huge)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, orders, ok := decodeOrders(data)
		if ok && orderInfoHeader+len(orders)*orderInfoEntry != len(data) {
			t.Fatalf("%d assignments from %d bytes", len(orders), len(data))
		}
		if !ok && orders != nil {
			t.Fatal("a rejected payload returned assignments")
		}
	})
}
