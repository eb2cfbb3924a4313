package mrpc

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// asyncBatchConfig returns an exactly-once configuration with asynchronous
// call semantics and the given flush size — the shape every batching test
// wants, since only CallAsync can park several calls in one pipeline.
func asyncBatchConfig(flushSize int) Config {
	cfg := ExactlyOnce()
	cfg.Call = CallAsynchronous
	cfg.FlushSize = flushSize
	return cfg
}

// TestBatchFlushSizeOne: FlushSize 1 disables coalescing entirely — even
// inside a pipeline section every message goes out as itself, and no
// OpBatch frame ever reaches the network.
func TestBatchFlushSizeOne(t *testing.T) {
	sys := NewSystem(SystemOptions{})
	defer sys.Stop()

	reg, echo := newEchoRegistry()
	cfg := asyncBatchConfig(1)
	if _, err := sys.AddServer(1, cfg, func() App { return reg }); err != nil {
		t.Fatal(err)
	}
	client, err := sys.AddClient(100, cfg)
	if err != nil {
		t.Fatal(err)
	}

	client.PipelineBegin()
	var ids []CallID
	for i := 0; i < 4; i++ {
		id, err := client.CallAsync(echo, []byte{byte('a' + i)}, sys.Group(1))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	client.PipelineEnd()
	for i, id := range ids {
		reply, status, err := client.Collect(id)
		if err != nil {
			t.Fatal(err)
		}
		if status != StatusOK {
			t.Fatalf("call %d: status = %v, want OK", i, status)
		}
		if want := "echo:" + string(byte('a'+i)); string(reply) != want {
			t.Fatalf("call %d: reply = %q, want %q", i, reply, want)
		}
	}
	if got := sys.Net().Stats().Batches; got != 0 {
		t.Fatalf("FlushSize 1 produced %d batch frames, want 0", got)
	}
}

// TestBatchExactlyFull: a pipeline that parks exactly FlushSize calls
// flushes them as one full batch frame the moment the lane fills — before
// PipelineEnd.
func TestBatchExactlyFull(t *testing.T) {
	sys := NewSystem(SystemOptions{})
	defer sys.Stop()

	reg, echo := newEchoRegistry()
	cfg := asyncBatchConfig(3)
	if _, err := sys.AddServer(1, cfg, func() App { return reg }); err != nil {
		t.Fatal(err)
	}
	client, err := sys.AddClient(100, cfg)
	if err != nil {
		t.Fatal(err)
	}

	client.PipelineBegin()
	var ids []CallID
	for i := 0; i < 3; i++ {
		id, err := client.CallAsync(echo, []byte{byte('a' + i)}, sys.Group(1))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// The lane reached the cap on the third call: the batch must already
	// be on the wire even though the pipeline section is still open.
	sys.Quiesce()
	if got := sys.Net().Stats().Batches; got < 1 {
		t.Fatalf("full lane did not flush inside the pipeline: Batches = %d, want >= 1", got)
	}
	client.PipelineEnd()
	for i, id := range ids {
		_, status, err := client.Collect(id)
		if err != nil {
			t.Fatal(err)
		}
		if status != StatusOK {
			t.Fatalf("call %d: status = %v, want OK", i, status)
		}
	}
}

// TestBatchOverflow: parking more calls than FlushSize splits the stream
// into full frames plus a remainder; nothing is lost and every call
// completes.
func TestBatchOverflow(t *testing.T) {
	sys := NewSystem(SystemOptions{})
	defer sys.Stop()

	reg, echo := newEchoRegistry()
	cfg := asyncBatchConfig(2)
	if _, err := sys.AddServer(1, cfg, func() App { return reg }); err != nil {
		t.Fatal(err)
	}
	client, err := sys.AddClient(100, cfg)
	if err != nil {
		t.Fatal(err)
	}

	const calls = 5 // 2 full frames of 2, then a remainder single
	client.PipelineBegin()
	var ids []CallID
	for i := 0; i < calls; i++ {
		id, err := client.CallAsync(echo, []byte{byte('a' + i)}, sys.Group(1))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	client.PipelineEnd()
	for i, id := range ids {
		reply, status, err := client.Collect(id)
		if err != nil {
			t.Fatal(err)
		}
		if status != StatusOK {
			t.Fatalf("call %d: status = %v, want OK", i, status)
		}
		if want := "echo:" + string(byte('a'+i)); string(reply) != want {
			t.Fatalf("call %d: reply = %q, want %q", i, reply, want)
		}
	}
	if got := sys.Net().Stats().Batches; got < 2 {
		t.Fatalf("overflowing 5 calls past FlushSize 2 produced %d batch frames, want >= 2", got)
	}
}

// TestBatchInterleavedWaitNoWait: one batch frame carries both a no-wait
// (CallAsync) call and a waiting (Call) call. The blocking Call issued
// inside the pipeline fills the lane to the cap, which flushes the frame
// and lets the Call's own reply come back — waiting and pipelined calls
// compose in a single frame.
func TestBatchInterleavedWaitNoWait(t *testing.T) {
	sys := NewSystem(SystemOptions{})
	defer sys.Stop()

	reg, echo := newEchoRegistry()
	cfg := asyncBatchConfig(2)
	if _, err := sys.AddServer(1, cfg, func() App { return reg }); err != nil {
		t.Fatal(err)
	}
	client, err := sys.AddClient(100, cfg)
	if err != nil {
		t.Fatal(err)
	}

	client.PipelineBegin()
	id, err := client.CallAsync(echo, []byte("nowait"), sys.Group(1))
	if err != nil {
		t.Fatal(err)
	}
	// The second call fills the FlushSize-2 lane: both requests leave in
	// one frame, so this blocking Call can complete inside the pipeline.
	reply, status, err := client.Call(echo, []byte("wait"), sys.Group(1))
	if err != nil {
		t.Fatal(err)
	}
	if status != StatusOK || string(reply) != "echo:wait" {
		t.Fatalf("waiting call: status = %v reply = %q", status, reply)
	}
	client.PipelineEnd()
	reply, status, err = client.Collect(id)
	if err != nil {
		t.Fatal(err)
	}
	if status != StatusOK || string(reply) != "echo:nowait" {
		t.Fatalf("no-wait call: status = %v reply = %q", status, reply)
	}
	if got := sys.Net().Stats().Batches; got < 1 {
		t.Fatalf("interleaved calls produced %d batch frames, want >= 1", got)
	}
}

// TestBatchRepliesCoalesce: a member answers a delivered batch frame with
// one frame. A pipelined round of 16 no-wait calls to 3 members costs one
// call batch and one reply batch per member — 6 frames, all batches.
func TestBatchRepliesCoalesce(t *testing.T) {
	sys := NewSystem(SystemOptions{})
	defer sys.Stop()

	reg, echo := newEchoRegistry()
	cfg := asyncBatchConfig(16)
	cfg.RetransTimeout = 10 * time.Second // no retransmission may add a frame
	cfg.AcceptanceLimit = AcceptAll       // every reply frame is sent before Collect returns
	group := sys.Group(1, 2, 3)
	for _, id := range group {
		if _, err := sys.AddServer(id, cfg, func() App { return reg }); err != nil {
			t.Fatal(err)
		}
	}
	client, err := sys.AddClient(100, cfg)
	if err != nil {
		t.Fatal(err)
	}

	before := sys.Net().Stats()
	client.PipelineBegin()
	ids := make([]CallID, 16)
	for i := range ids {
		id, err := client.CallAsync(echo, []byte{byte(i)}, group)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	client.PipelineEnd()
	for i, id := range ids {
		reply, status, err := client.Collect(id)
		if err != nil || status != StatusOK || string(reply) != "echo:"+string(byte(i)) {
			t.Fatalf("call %d: status %v reply %q err %v", i, status, reply, err)
		}
	}
	sys.Quiesce()
	after := sys.Net().Stats()
	if sent, batches := after.Sent-before.Sent, after.Batches-before.Batches; sent != 6 || batches != 6 {
		t.Fatalf("16 pipelined calls to 3 members sent %d frames (%d batches), want 6 batches: "+
			"one call frame and one reply frame per member", sent, batches)
	}
}

// nestConfig is the configuration of the nested-call tests. Retransmission
// is kept out of the test's window: retransmitted CALLs would flush a lane
// a hold had parked, turning a wedge into a mere stall.
func nestConfig() Config {
	cfg := asyncBatchConfig(16)
	cfg.RetransTimeout = time.Minute
	return cfg
}

// nestApp serves echo and nest; nest calls echo on group synchronously from
// inside the procedure — while the batch frame that carried the nest call
// is still being dispatched — and returns that reply. before, if set, runs
// first.
func nestApp(node **Node, group Group, before func()) (*Registry, OpID, OpID) {
	reg, echo := newEchoRegistry()
	nest := reg.Register("nest", func(_ *Thread, args []byte) []byte {
		if before != nil {
			before()
		}
		reply, status, err := (*node).Call(echo, args, group)
		if err != nil || status != StatusOK {
			return []byte("failed")
		}
		return reply
	})
	return reg, echo, nest
}

// awaitRounds runs the rounds concurrently and fails the test unless each
// completes without error.
func awaitRounds(t *testing.T, rounds ...func() error) {
	t.Helper()
	done := make(chan error, len(rounds))
	for _, r := range rounds {
		go func(r func() error) { done <- r() }(r)
	}
	for range rounds {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a batch's nested synchronous call never completed: the reply hold blocked it")
		}
	}
}

// nestRound pipelines [echo, nest, echo] from client to group and checks
// the replies; nest's reply is the echo its nested call got.
func nestRound(client *Node, group Group, echo, nest OpID) func() error {
	return func() error {
		client.PipelineBegin()
		var ids [3]CallID
		for i, op := range [3]OpID{echo, nest, echo} {
			id, err := client.CallAsync(op, []byte{byte('a' + i)}, group)
			if err != nil {
				return err
			}
			ids[i] = id
		}
		client.PipelineEnd()
		for i, id := range ids {
			reply, status, err := client.Collect(id)
			if want := "echo:" + string(byte('a'+i)); err != nil || status != StatusOK || string(reply) != want {
				return fmt.Errorf("client %d call %d: status %v reply %q err %v, want %q",
					client.ID(), i, status, reply, err, want)
			}
		}
		return nil
	}
}

// TestBatchNestedSyncCallIsNotHeld: a server procedure that synchronously
// calls a group containing the batch's sender, while that batch is still
// being dispatched, completes — its CALL is not parked behind the reply
// hold on the sender's lane.
func TestBatchNestedSyncCallIsNotHeld(t *testing.T) {
	sys := NewSystem(SystemOptions{})
	defer sys.Stop()

	cfg := nestConfig()
	var n1 *Node
	reg1, echo, nest := nestApp(&n1, sys.Group(2), nil)
	reg2, _ := newEchoRegistry()
	var err error
	if n1, err = sys.AddServer(1, cfg, func() App { return reg1 }); err != nil {
		t.Fatal(err)
	}
	n2, err := sys.AddServer(2, cfg, func() App { return reg2 })
	if err != nil {
		t.Fatal(err)
	}
	awaitRounds(t, nestRound(n2, sys.Group(1), echo, nest))
}

// TestBatchCrossedNestedCallsComplete: two nodes each dispatch a batch
// from the other, and each batch's procedure synchronously calls the
// other node. Each nested call is executed while the executing node's
// lane to its caller is held, so the two replies would park forever;
// a caller parked on a reply keeps the hold from parking any.
func TestBatchCrossedNestedCallsComplete(t *testing.T) {
	// The delay makes both nested CALLs leave before either is executed,
	// so no CALL can carry the other's parked reply out with it.
	delay := 5 * time.Millisecond
	sys := NewSystem(SystemOptions{Net: NetParams{MinDelay: delay, MaxDelay: delay}})
	defer sys.Stop()

	cfg := nestConfig()
	// Both nest procedures start before either makes its nested call, so
	// both dispatches are open when the nested calls arrive.
	var both sync.WaitGroup
	both.Add(2)
	meet := func() {
		both.Done()
		both.Wait()
	}
	var n1, n2 *Node
	reg1, echo, nest := nestApp(&n1, sys.Group(2), meet)
	reg2, _, _ := nestApp(&n2, sys.Group(1), meet)
	var err error
	if n1, err = sys.AddServer(1, cfg, func() App { return reg1 }); err != nil {
		t.Fatal(err)
	}
	if n2, err = sys.AddServer(2, cfg, func() App { return reg2 }); err != nil {
		t.Fatal(err)
	}
	awaitRounds(t, nestRound(n1, sys.Group(2), echo, nest), nestRound(n2, sys.Group(1), echo, nest))
}

// TestBatchMemberCrashHalfFlushed: a member crashes while a pipeline holds
// a half-flushed batch for it. The parked frame for the dead member is
// dropped by the network; the surviving member's copy flushes at
// PipelineEnd and satisfies acceptance, so every call still completes.
func TestBatchMemberCrashHalfFlushed(t *testing.T) {
	sys := NewSystem(SystemOptions{Membership: MembershipOracle})
	defer sys.Stop()

	reg, echo := newEchoRegistry()
	cfg := asyncBatchConfig(8) // large cap: nothing flushes until PipelineEnd
	cfg.RetransTimeout = 5 * time.Millisecond
	// Wait for every functioning member: the crashed member is excused by
	// the membership oracle, but the survivor's real reply is required —
	// so the collected result is deterministic, not a vacuous acceptance.
	cfg.AcceptanceLimit = AcceptAll
	group := sys.Group(1, 2)
	for _, id := range group {
		if _, err := sys.AddServer(id, cfg, func() App { return reg }); err != nil {
			t.Fatal(err)
		}
	}
	client, err := sys.AddClient(100, cfg)
	if err != nil {
		t.Fatal(err)
	}

	client.PipelineBegin()
	var ids []CallID
	for i := 0; i < 3; i++ {
		id, err := client.CallAsync(echo, []byte{byte('a' + i)}, sys.Group(1, 2))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Crash member 2 while its lane still holds the unflushed batch.
	n2, _ := sys.Node(2)
	n2.Crash()
	client.PipelineEnd()
	for i, id := range ids {
		reply, status, err := client.Collect(id)
		if err != nil {
			t.Fatal(err)
		}
		if status != StatusOK {
			t.Fatalf("call %d: status = %v, want OK", i, status)
		}
		if want := "echo:" + string(byte('a'+i)); string(reply) != want {
			t.Fatalf("call %d: reply = %q, want %q", i, reply, want)
		}
	}
}

// TestReconfigureForcesUnflushedBatch is the admission-gate regression
// test: a drain-class reconfiguration racing a pipeline section with
// parked, unflushed calls must force-flush them and drain to completion
// rather than wedge behind the open pipeline hold. CloseAdmission's drain
// barrier calls ForceFlush, so the parked calls reach the servers and
// complete while the pipeline section is still open. The same holds for
// replies parked under a reply hold by a batch dispatch the server's own
// reconfiguration races.
func TestReconfigureForcesUnflushedBatch(t *testing.T) {
	sys := NewSystem(SystemOptions{})
	defer sys.Stop()

	reg, echo := newEchoRegistry()
	entered, release := make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock() // a failing test must not leave the dispatch blocked
	gate := reg.Register("gate", func(_ *Thread, args []byte) []byte {
		close(entered)
		<-release
		return append([]byte("echo:"), args...)
	})
	cfg := asyncBatchConfig(16) // cap far above the call count: all parked
	server, err := sys.AddServer(1, cfg, func() App { return reg })
	if err != nil {
		t.Fatal(err)
	}
	client, err := sys.AddClient(100, cfg)
	if err != nil {
		t.Fatal(err)
	}
	syncCfg := cfg
	syncCfg.Call = CallSynchronous

	// First race: the server reconfigures while it dispatches a batch
	// frame. The replies to the calls ahead of the gate are parked under
	// the reply hold while gate blocks; the drain's force flush must send
	// them, and the swap completes once the dispatch ends.
	client.PipelineBegin()
	var gated []CallID
	for i, op := range []OpID{echo, echo, gate} {
		id, err := client.CallAsync(op, []byte{byte('a' + i)}, sys.Group(1))
		if err != nil {
			t.Fatal(err)
		}
		gated = append(gated, id)
	}
	client.PipelineEnd()
	collected := make(chan error, len(gated))
	collect := func(i int, id CallID) {
		reply, status, err := client.Collect(id)
		if want := "echo:" + string(byte('a'+i)); err != nil || status != StatusOK || string(reply) != want {
			err = fmt.Errorf("gated call %d: status %v reply %q err %v, want %q", i, status, reply, err, want)
		}
		collected <- err
	}
	awaitOrFatal := func(ch <-chan error, what string) {
		t.Helper()
		select {
		case err := <-ch:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal(what)
		}
	}
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the gate procedure never ran")
	}
	serverDone := make(chan error, 1)
	go func() { serverDone <- server.Reconfigure(syncCfg) }()
	for i, id := range gated[:2] {
		go collect(i, id)
		awaitOrFatal(collected, "a reply parked by the batch dispatch was not force-flushed by the drain")
	}
	unblock()
	awaitOrFatal(serverDone, "server Reconfigure wedged behind a batch dispatch")
	go collect(2, gated[2])
	awaitOrFatal(collected, "the gated call never completed")

	// Second race: the client reconfigures with calls parked in an open
	// pipeline section.
	client.PipelineBegin()
	var ids []CallID
	for i := 0; i < 4; i++ {
		id, err := client.CallAsync(echo, []byte{byte('a' + i)}, sys.Group(1))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}

	// Switching the call mode is a drain-class transition: admission
	// closes, which must flush the four parked calls or the drain would
	// time out waiting for calls that never left the client.
	done := make(chan error, 1)
	go func() { done <- client.Reconfigure(syncCfg) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Reconfigure failed against an unflushed batch: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Reconfigure wedged behind an unflushed pipelined batch")
	}
	client.PipelineEnd()

	// The results were issued under the asynchronous composite; D14 keeps
	// them collectable after the swap to synchronous semantics.
	for i, id := range ids {
		reply, status, err := client.Collect(id)
		if err != nil {
			t.Fatal(err)
		}
		if status != StatusOK {
			t.Fatalf("call %d: status = %v, want OK", i, status)
		}
		if want := "echo:" + string(byte('a'+i)); string(reply) != want {
			t.Fatalf("call %d: reply = %q, want %q", i, reply, want)
		}
	}
	if got := sys.Net().Stats().Batches; got < 1 {
		t.Fatalf("forced flush produced %d batch frames, want >= 1", got)
	}
}
