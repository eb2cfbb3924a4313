package core

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"mrpc/internal/msg"
)

func TestLowWaterAdvancesPastContiguousPrefixOnly(t *testing.T) {
	net := newMemNet()
	addNode(t, net, 1, nodeOpts{server: echoServer()}, minimalClient(1)...)
	client := addNode(t, net, 100, nodeOpts{},
		&RPCMain{}, &AsynchronousCall{}, &Acceptance{Limit: 1}, &Collation{})
	group := msg.NewGroup(1)

	var ids []msg.CallID
	for i := 0; i < 3; i++ {
		um := client.fw.Call(1, []byte("x"), group)
		ids = append(ids, um.ID)
	}
	// All three completed at once (synchronous delivery) but none is
	// collected: each record still holds the mark.
	if w := client.fw.LowWater(); w != ids[0] {
		t.Fatalf("W = %d, want the first call %d", w, ids[0])
	}
	steps := []struct {
		collect msg.CallID
		want    msg.CallID
	}{
		{ids[1], ids[0]},     // a hole above the prefix: W stays
		{ids[0], ids[2]},     // the prefix closes up to the next held call
		{ids[2], ids[2] + 1}, // nothing held: the next id to issue
	}
	for _, s := range steps {
		if um := client.fw.Request(s.collect); um.Status != msg.StatusOK {
			t.Fatalf("collect %d: status %v", s.collect, um.Status)
		}
		if w := client.fw.LowWater(); w != s.want {
			t.Fatalf("after collecting %d: W = %d, want %d", s.collect, w, s.want)
		}
	}
	for _, s := range net.sentLog() {
		if s.M.Type == msg.OpCall && s.M.AckID != ids[0] {
			t.Fatalf("call %d carries mark %d, want %d", s.M.ID, s.M.AckID, ids[0])
		}
	}
}

// waitLowWater polls until the client's mark reaches want.
func waitLowWater(t *testing.T, fw *Framework, want msg.CallID) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for fw.LowWater() != want {
		if time.Now().After(deadline) {
			t.Fatalf("W = %d, want %d", fw.LowWater(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestLowWaterHeldByLingeringEntry(t *testing.T) {
	net := newMemNet()
	for _, id := range []msg.ProcID{1, 2} {
		addNode(t, net, id, nodeOpts{server: echoServer()},
			&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
			&ReliableCommunication{RetransTimeout: time.Hour}, &UniqueExecution{})
	}
	client := addNode(t, net, 100, nodeOpts{},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
		&ReliableCommunication{RetransTimeout: 2 * time.Millisecond, LingerRounds: 20},
		&UniqueExecution{})
	group := msg.NewGroup(1, 2)
	cut := make(chan bool, 1)
	cut <- true
	net.setHook(func(to msg.ProcID, _ *msg.NetMsg) bool {
		c := <-cut
		cut <- c
		return c && to == 2
	})
	setCut := func(c bool) { <-cut; cut <- c }

	// Member 2 misses the call; acceptance 1 completes it on member 1's
	// reply, and the caller collects it. The lingering entry keeps W at it
	// until member 2 answers a retransmission.
	um := client.fw.Call(1, []byte("a"), group)
	if um.Status != msg.StatusOK {
		t.Fatalf("status %v", um.Status)
	}
	first := um.ID
	if w := client.fw.LowWater(); w != first {
		t.Fatalf("W = %d with member 2 unacknowledged, want %d", w, first)
	}
	setCut(false)
	waitLowWater(t, client.fw, first+1)

	// This time member 2 never hears: W holds until LingerRounds expire.
	setCut(true)
	um = client.fw.Call(1, []byte("b"), group)
	if um.Status != msg.StatusOK {
		t.Fatalf("status %v", um.Status)
	}
	if w := client.fw.LowWater(); w != um.ID {
		t.Fatalf("W = %d with member 2 unacknowledged, want %d", w, um.ID)
	}
	waitLowWater(t, client.fw, um.ID+1)
}

// TestLowWaterNeverDecreases drives the tracker with random issue, hold and
// release sequences and checks, after every step, that W is exactly the
// lowest held id (or the next to issue) and never moves down.
func TestLowWaterNeverDecreases(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var lw lowWater
	lw.init()
	holds := map[msg.CallID]int{}
	inc := msg.Incarnation(1)
	var next msg.CallID
	var prev msg.CallID
	for step := 0; step < 20000; step++ {
		switch r := rng.Intn(10); {
		case r < 3 || len(holds) == 0:
			if rng.Intn(500) == 0 {
				inc++ // a recovery under the same framework
			}
			id := lw.issue(inc)
			holds[id]++
			next = id + 1
		case r < 5:
			for id := range holds {
				lw.hold(id)
				holds[id]++
				break
			}
		default:
			for id := range holds {
				lw.release(id)
				if holds[id]--; holds[id] == 0 {
					delete(holds, id)
				}
				break
			}
		}
		want := msg.CallID(int64(inc)<<32 | int64(callSeq(next)))
		for id := range holds {
			if id < want {
				want = id
			}
		}
		w := lw.load()
		if w != want {
			t.Fatalf("step %d: W = %#x, want %#x", step, w, want)
		}
		if w < prev {
			t.Fatalf("step %d: W moved down from %#x to %#x", step, prev, w)
		}
		prev = w
	}
}

// TestLowWaterConcurrentHolders issues, holds and releases ids from several
// goroutines at once (callers and Reliable's retirement run on different
// goroutines) and checks that W never moves down and ends past every id.
func TestLowWaterConcurrentHolders(t *testing.T) {
	var lw lowWater
	lw.init()
	const workers, per = 4, 2000
	stop, watched := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(watched)
		var prev msg.CallID
		for {
			select {
			case <-stop:
				return
			default:
			}
			w := lw.load()
			if w < prev {
				t.Errorf("W moved down from %#x to %#x", prev, w)
				return
			}
			prev = w
		}
	}()
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				id := lw.issue(1)
				lw.hold(id)
				lw.release(id)
				lw.release(id)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-watched
	if w, want := lw.load(), callID(1, workers*per+1); w != want {
		t.Fatalf("W = %#x after every hold was released, want %#x", w, want)
	}
}

func TestLowWaterHoldReleaseAllocs(t *testing.T) {
	var lw lowWater
	lw.init()
	pinned := lw.issue(1) // keeps W behind, so the window slides as it spans
	cycle := func() {
		id := lw.issue(1)
		lw.hold(id)
		lw.release(id)
		lw.release(id)
		_ = lw.load()
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	lw.release(pinned)
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Fatalf("hold/release allocates %v per call, want 0", n)
	}

	// The server side of the mark: observing a mark and admitting the call
	// on a window that already spans the lag allocates nothing either.
	cw := make(clientWindows[uniqueSlot])
	seq := uint32(1)
	admit := func() {
		id := callID(1, seq)
		cw.observe(100, callID(1, seq-min(seq-1, 4)))
		*cw.slot(100, id) = uniqueSlot{state: uniqueSeen}
		seq++
	}
	for i := 0; i < 64; i++ {
		admit()
	}
	if n := testing.AllocsPerRun(1000, admit); n != 0 {
		t.Fatalf("floor window allocates %v per call, want 0", n)
	}
}

func TestClientWindowSpanIsCapped(t *testing.T) {
	cw := make(clientWindows[receivedSlot])
	*cw.slot(100, callID(1, 1)) = true
	far := uint32(1 << 30) // a forged id, or a mark lagging a billion calls
	*cw.slot(100, callID(1, far)) = true
	w := cw.of(100, callID(1, 1))
	if len(w.ring) > maxWindowSpan {
		t.Fatalf("window spans %d, want at most %d", len(w.ring), maxWindowSpan)
	}
	if cw.slot(100, callID(1, 1)) != nil {
		t.Fatal("a call the slide passed over is not treated as settled")
	}
	if s := cw.slot(100, callID(1, far)); s == nil || !s.admitted() {
		t.Fatal("the far call lost its slot")
	}
}

func TestSeqWindowMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var w seqWindow[uint32]
	model := map[uint32]uint32{}
	for step := 0; step < 20000; step++ {
		if rng.Intn(4) == 0 {
			floor := w.base + uint32(rng.Intn(40))
			w.advance(floor)
			for s := range model {
				if s < floor {
					delete(model, s)
				}
			}
		} else {
			seq := w.base + uint32(rng.Intn(100))
			v := rng.Uint32() | 1
			*w.slot(seq) = v
			model[seq] = v
		}
		for s, v := range model {
			if p := w.peek(s); p == nil || *p != v {
				t.Fatalf("step %d: slot %d lost its value", step, s)
			}
		}
		if p := w.slot(w.base); *p != model[w.base] {
			t.Fatalf("step %d: stale value at the base", step)
		}
		if w.base > 0 && w.slot(w.base-1) != nil {
			t.Fatalf("step %d: slot below the base", step)
		}
	}
}
