package mrpc

import (
	"fmt"
	"testing"
	"time"

	"mrpc/internal/trace"
)

// countKind returns how many events of the given kind the log recorded.
func countKind(log *TraceLog, kind trace.Kind) int {
	n := 0
	for _, e := range log.Events() {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// TestTreeDisseminationEndToEnd drives calls through a tree(2)-configured
// group over the wire codec and checks that (a) the calls behave exactly as
// under flat dissemination, (b) the relay tree actually engaged (KRelay
// events at the origin and at interior members), and (c) the client's
// egress stayed O(k): far below the flat g-1 frames per call.
func TestTreeDisseminationEndToEnd(t *testing.T) {
	log := NewTraceLog()
	sys := NewSystem(SystemOptions{
		Net:   NetParams{EncodeOnWire: true},
		Trace: log,
	})
	defer sys.Stop()

	// Exactly-once: Unique Execution's acknowledgement rides on the next
	// call as its low-water mark (D20), so the client's egress is the
	// dissemination traffic alone.
	cfg := ExactlyOnce()
	cfg.Dissemination = DissTree
	cfg.TreeFanout = 2
	cfg.AcceptanceLimit = AcceptAll
	cfg.RetransTimeout = 200 * time.Millisecond

	reg, echo := newEchoRegistry()
	group := sys.Group(1, 2, 3, 4, 5, 6, 7, 8, 9)
	for _, id := range group {
		if _, err := sys.AddServer(id, cfg, func() App { return reg }); err != nil {
			t.Fatal(err)
		}
	}
	client, err := sys.AddClient(100, cfg)
	if err != nil {
		t.Fatal(err)
	}

	const calls = 20
	for i := 0; i < calls; i++ {
		payload := []byte(fmt.Sprintf("m%d", i))
		reply, status, err := client.Call(echo, payload, group)
		if err != nil {
			t.Fatal(err)
		}
		if status != StatusOK {
			t.Fatalf("call %d: status = %v, want OK", i, status)
		}
		if want := "echo:" + string(payload); string(reply) != want {
			t.Fatalf("call %d: reply = %q, want %q", i, reply, want)
		}
	}
	sys.Quiesce()

	if n := countKind(log, trace.KRelay); n < calls*2 {
		t.Fatalf("KRelay events = %d, want >= %d (origin + interior relays per call)", n, calls*2)
	}

	// The client sent each call to its 2 children, plus at most the odd
	// retransmission — nowhere near the flat g-1 = 8 frames per call.
	node, _ := sys.Node(100)
	egress := node.Link().Stats().Egress
	if egress > int64(calls*(cfg.TreeFanout+2)) {
		t.Fatalf("client egress = %d over %d calls, want ~k=%d per call (flat would be %d)",
			egress, calls, cfg.TreeFanout, calls*(len(group)-1))
	}
}

// TestTreeReparentOnCrash crashes an interior tree node while a call is in
// flight: the origin's window re-delivers the frozen frame to the members
// it adopts (KReparent), and the call still completes against the
// surviving members.
func TestTreeReparentOnCrash(t *testing.T) {
	log := NewTraceLog()
	sys := NewSystem(SystemOptions{
		Net:        NetParams{MinDelay: 60 * time.Millisecond, MaxDelay: 60 * time.Millisecond},
		Membership: MembershipOracle,
		Trace:      log,
	})
	defer sys.Stop()

	// AcceptAll: the call completes only once every surviving member has
	// replied — so servers stranded below the crashed interior node MUST
	// receive the re-delivered frame for the call to finish before the
	// (deliberately long) retransmission timer.
	cfg := ExactlyOnce()
	cfg.Dissemination = DissTree
	cfg.TreeFanout = 2
	cfg.AcceptanceLimit = AcceptAll
	cfg.RetransTimeout = 500 * time.Millisecond

	reg, echo := newEchoRegistry()
	group := sys.Group(1, 2, 3, 4, 5, 6, 7)
	for _, id := range group {
		if _, err := sys.AddServer(id, cfg, func() App { return reg }); err != nil {
			t.Fatal(err)
		}
	}
	client, err := sys.AddClient(100, cfg)
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		reply  []byte
		status Status
		err    error
	}
	done := make(chan result, 1)
	go func() {
		reply, status, err := client.Call(echo, []byte("hi"), group)
		done <- result{reply, status, err}
	}()

	// The frame is in flight toward the origin's children (60ms links);
	// crash the first child — an interior node whose subtree the origin
	// must adopt.
	time.Sleep(20 * time.Millisecond)
	victim, _ := sys.Node(1)
	victim.Crash()

	start := time.Now()
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.status != StatusOK {
		t.Fatalf("status = %v, want OK", r.status)
	}
	if string(r.reply) != "echo:hi" {
		t.Fatalf("reply = %q", r.reply)
	}
	// Via re-parent re-delivery the call settles after a few 60ms hops;
	// reaching the stranded subtree through retransmission alone would
	// take the 500ms timer.
	if elapsed := time.Since(start); elapsed > 450*time.Millisecond {
		t.Fatalf("call took %v after the crash; re-parent re-delivery should beat the retransmission timer", elapsed)
	}
	sys.Quiesce()

	if n := countKind(log, trace.KReparent); n < 1 {
		t.Fatalf("KReparent events = %d, want >= 1 (origin adopts the crashed child's subtree)", n)
	}
}
