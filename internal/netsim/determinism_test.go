package netsim

import (
	"runtime"
	"testing"
	"time"

	"mrpc/internal/clock"
	"mrpc/internal/msg"
	"mrpc/internal/transport"
)

// These tests pin the per-directed-link fault model: every directed link
// derives its own random source from Params.Seed, so the loss/dup/delay
// sequence a link observes depends only on that link's traffic — not on
// what any other link carries, and not on goroutine scheduling.

// outcomes returns, per CallID, how many copies a collector received.
// Delivery order is scheduler-dependent, but per-message copy counts are
// not.
func outcomes(c *collector) map[msg.CallID]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	got := make(map[msg.CallID]int, len(c.msgs))
	for _, m := range c.msgs {
		got[m.ID]++
	}
	return got
}

func sameOutcomes(a, b map[msg.CallID]int) bool {
	if len(a) != len(b) {
		return false
	}
	for id, n := range a {
		if b[id] != n {
			return false
		}
	}
	return true
}

// TestLinkFaultIndependence is the core determinism suite: identical runs
// agree message-by-message, and a link's fault sequence is a function of
// its own traffic only.
func TestLinkFaultIndependence(t *testing.T) {
	const sent = 300
	params := Params{Seed: 7, LossProb: 0.3, DupProb: 0.2}

	// run sends `sent` calls 1→2; when withNoise is set it interleaves a
	// call 1→3 after every 1→2 send. It returns link 1→2's per-message
	// outcome and the final stats.
	run := func(withNoise bool) (map[msg.CallID]int, transport.Stats) {
		n := New(clock.NewReal(), params)
		defer n.Stop()
		a, _ := attach(t, n, 1)
		_, cb := attach(t, n, 2)
		attach(t, n, 3)
		for i := 0; i < sent; i++ {
			a.Push(2, call(msg.CallID(i)))
			if withNoise {
				a.Push(3, call(msg.CallID(1000+i)))
			}
		}
		n.Quiesce()
		return outcomes(cb), n.Stats()
	}

	t.Run("identical runs agree per message", func(t *testing.T) {
		o1, st1 := run(false)
		o2, st2 := run(false)
		if st1 != st2 {
			t.Fatalf("same seed, different stats: %+v vs %+v", st1, st2)
		}
		if !sameOutcomes(o1, o2) {
			t.Fatal("same seed, different per-message drop/dup decisions")
		}
		if st1.Dropped == 0 || st1.Duplicated == 0 {
			t.Fatalf("faults not exercised: %+v", st1)
		}
	})

	t.Run("other links do not perturb a link's sequence", func(t *testing.T) {
		quiet, _ := run(false)
		noisy, _ := run(true)
		// Link 1→2 saw the same messages in the same order both times;
		// the extra 1→3 traffic must not shift its fault decisions.
		if !sameOutcomes(quiet, noisy) {
			t.Fatal("traffic on 1→3 changed the fault sequence on 1→2")
		}
	})
}

// TestDeterminismUnderPartition extends the guarantee to runs that toggle
// partitions mid-stream: partition drops are deterministic, and messages
// admitted after the heal continue the link's fault sequence identically.
func TestDeterminismUnderPartition(t *testing.T) {
	run := func() (map[msg.CallID]int, transport.Stats) {
		n := New(clock.NewReal(), Params{Seed: 11, LossProb: 0.25, DupProb: 0.25})
		defer n.Stop()
		a, _ := attach(t, n, 1)
		_, cb := attach(t, n, 2)
		for i := 0; i < 100; i++ {
			a.Push(2, call(msg.CallID(i)))
		}
		n.Partition(1, 2, true)
		for i := 100; i < 150; i++ {
			a.Push(2, call(msg.CallID(i))) // all blocked, no RNG consumed
		}
		n.Partition(1, 2, false)
		for i := 150; i < 250; i++ {
			a.Push(2, call(msg.CallID(i)))
		}
		n.Quiesce()
		return outcomes(cb), n.Stats()
	}
	o1, st1 := run()
	o2, st2 := run()
	if st1 != st2 {
		t.Fatalf("same seed, different stats: %+v vs %+v", st1, st2)
	}
	if !sameOutcomes(o1, o2) {
		t.Fatal("same seed, different decisions across a partition cycle")
	}
	if st1.Partition != 50 {
		t.Fatalf("partition drops = %d, want 50", st1.Partition)
	}
	for i := 100; i < 150; i++ {
		if o1[msg.CallID(i)] != 0 {
			t.Fatalf("message %d delivered through a partition", i)
		}
	}
}

// TestDeterminismUnderOneWayPartition checks the directed variant: blocking
// 1→2 must not consume randomness on — or otherwise perturb — the reverse
// link 2→1.
func TestDeterminismUnderOneWayPartition(t *testing.T) {
	run := func(block bool) (map[msg.CallID]int, transport.Stats) {
		n := New(clock.NewReal(), Params{Seed: 13, LossProb: 0.3, DupProb: 0.1})
		defer n.Stop()
		a, ca := attach(t, n, 1)
		b, _ := attach(t, n, 2)
		if block {
			n.PartitionOneWay(1, 2, true)
		}
		for i := 0; i < 200; i++ {
			a.Push(2, call(msg.CallID(i)))      // blocked when block is set
			b.Push(1, call(msg.CallID(1000+i))) // always open
		}
		n.Quiesce()
		return outcomes(ca), n.Stats()
	}
	open, stOpen := run(false)
	blocked, stBlocked := run(true)
	// The open direction's fault sequence is identical whether or not the
	// opposite direction is blocked.
	if !sameOutcomes(open, blocked) {
		t.Fatal("blocking 1→2 changed the fault sequence on 2→1")
	}
	if stBlocked.Partition != 200 {
		t.Fatalf("one-way partition drops = %d, want 200", stBlocked.Partition)
	}
	if stOpen.Partition != 0 {
		t.Fatalf("unexpected partition drops in open run: %d", stOpen.Partition)
	}
}

// deliveryOrder drains every pending sim-clock timer one deadline at a
// time, waiting for each batch of fired deliveries to land (across all the
// given collectors) before firing the next, so each collector's recorded
// order IS the delivery schedule of its endpoint. It returns the first
// collector's order.
func deliveryOrder(clk *clock.Sim, cs ...*collector) []msg.CallID {
	count := func() int {
		total := 0
		for _, c := range cs {
			total += c.count()
		}
		return total
	}
	total := count()
	pending := clk.PendingTimers()
	for pending > 0 {
		clk.AdvanceToNext()
		now := clk.PendingTimers()
		total += pending - now
		pending = now
		for count() < total {
			runtime.Gosched()
		}
	}
	c := cs[0]
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]msg.CallID, len(c.msgs))
	for i, m := range c.msgs {
		ids[i] = m.ID
	}
	return ids
}

// TestReorderScheduleDeterminism extends the link-independence guarantee
// to reordering storms: identical seeds produce identical delivery
// schedules (not just identical drop/dup decisions), and a storm on one
// link does not shift another link's schedule.
func TestReorderScheduleDeterminism(t *testing.T) {
	params := Params{Seed: 21, MinDelay: time.Millisecond, MaxDelay: time.Millisecond,
		Reorder: ReorderParams{Prob: 1, Window: 1 << 20, Spread: 5 * time.Millisecond}}

	run := func(withNoise bool) []msg.CallID {
		clk := clock.NewSim()
		n := New(clk, params)
		defer n.Stop()
		a, _ := attach(t, n, 1)
		_, cb := attach(t, n, 2)
		_, c3 := attach(t, n, 3)
		for i := 0; i < 60; i++ {
			a.Push(2, call(msg.CallID(i)))
			if withNoise {
				a.Push(3, call(msg.CallID(1000+i)))
			}
		}
		order := deliveryOrder(clk, cb, c3)
		n.Quiesce()
		return order
	}

	o1, o2 := run(false), run(false)
	if len(o1) != 60 {
		t.Fatalf("delivered %d of 60", len(o1))
	}
	if !slicesEqual(o1, o2) {
		t.Fatalf("same seed, different delivery schedule:\n%v\n%v", o1, o2)
	}
	sorted := true
	for i := 1; i < len(o1); i++ {
		if o1[i] < o1[i-1] {
			sorted = false
		}
	}
	if sorted {
		t.Fatal("storm did not permute the delivery schedule")
	}
	if noisy := run(true); !slicesEqual(o1, noisy) {
		t.Fatalf("storm traffic on 1→3 shifted link 1→2's schedule:\n%v\n%v", o1, noisy)
	}
}

func slicesEqual(a, b []msg.CallID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFlapScheduleDeterminism scripts a flapping partition on the sim
// clock: the set of messages that pass, the partition-drop count and the
// cycle count are exact functions of the schedule.
func TestFlapScheduleDeterminism(t *testing.T) {
	run := func() (delivered map[msg.CallID]int, st transport.Stats) {
		clk := clock.NewSim()
		n := New(clk, Params{})
		defer n.Stop()
		a, _ := attach(t, n, 1)
		_, cb := attach(t, n, 2)
		done := n.StartFlap(1, 2, 10*time.Millisecond, 3)
		// Pushes every 2.5ms across three 10ms cycles: blocked halves are
		// [0,5), [10,15), [20,25); healed halves the other four windows.
		for i := 0; i < 12; i++ {
			a.Push(2, call(msg.CallID(i)))
			n.Quiesce() // zero-delay deliveries land before the clock moves
			clk.Advance(2500 * time.Microsecond)
		}
		for clk.PendingTimers() > 0 {
			clk.AdvanceToNext()
		}
		<-done
		n.Quiesce()
		return outcomes(cb), n.Stats()
	}
	o1, st1 := run()
	o2, st2 := run()
	if st1 != st2 || !sameOutcomes(o1, o2) {
		t.Fatalf("same flap script, different outcome: %+v vs %+v", st1, st2)
	}
	if st1.FlapCycles != 3 {
		t.Fatalf("flap cycles = %d, want 3", st1.FlapCycles)
	}
	if st1.Partition != 6 {
		t.Fatalf("partition drops = %d, want 6 (pushes landing in blocked halves)", st1.Partition)
	}
	for _, id := range []msg.CallID{2, 3, 6, 7, 10, 11} {
		if o1[id] != 1 {
			t.Fatalf("push %d fell in a healed half but was not delivered: %v", id, o1)
		}
	}
	for _, id := range []msg.CallID{0, 1, 4, 5, 8, 9} {
		if o1[id] != 0 {
			t.Fatalf("push %d fell in a blocked half but was delivered: %v", id, o1)
		}
	}
}

// TestFlapDoesNotPerturbOtherLinks extends TestLinkFaultIndependence to
// flap cycles: flapping 1↔2 must not consume randomness on — or otherwise
// perturb — the fault sequence of 1→3.
func TestFlapDoesNotPerturbOtherLinks(t *testing.T) {
	run := func(flap bool) map[msg.CallID]int {
		n := New(clock.NewReal(), Params{Seed: 31, LossProb: 0.3, DupProb: 0.2})
		defer n.Stop()
		a, _ := attach(t, n, 1)
		attach(t, n, 2)
		_, cc := attach(t, n, 3)
		var done <-chan struct{}
		if flap {
			done = n.StartFlap(1, 2, 2*time.Millisecond, 3)
		}
		for i := 0; i < 200; i++ {
			a.Push(2, call(msg.CallID(i)))
			a.Push(3, call(msg.CallID(1000+i)))
		}
		if flap {
			<-done
		}
		n.Quiesce()
		return outcomes(cc)
	}
	quiet := run(false)
	flappy := run(true)
	if !sameOutcomes(quiet, flappy) {
		t.Fatal("flapping 1↔2 changed the fault sequence on 1→3")
	}
}

// TestReorderFaultIndependence runs the original independence check with a
// reordering storm in force: storm rolls come from the same per-link
// stream, so cross-link isolation must survive them too.
func TestReorderFaultIndependence(t *testing.T) {
	params := Params{Seed: 17, LossProb: 0.2, DupProb: 0.1,
		Reorder: ReorderParams{Prob: 0.2, Window: 4, Spread: time.Millisecond}}
	run := func(withNoise bool) map[msg.CallID]int {
		n := New(clock.NewReal(), params)
		defer n.Stop()
		a, _ := attach(t, n, 1)
		_, cb := attach(t, n, 2)
		attach(t, n, 3)
		for i := 0; i < 300; i++ {
			a.Push(2, call(msg.CallID(i)))
			if withNoise {
				a.Push(3, call(msg.CallID(1000+i)))
			}
		}
		n.Quiesce()
		return outcomes(cb)
	}
	o1, o2 := run(false), run(false)
	if !sameOutcomes(o1, o2) {
		t.Fatal("same seed, different decisions with storms in force")
	}
	if noisy := run(true); !sameOutcomes(o1, noisy) {
		t.Fatal("storm traffic on 1→3 changed the fault sequence on 1→2")
	}
}
