package mrpc_test

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"mrpc"
	"mrpc/internal/clock"
	"mrpc/internal/nettcp"
	"mrpc/internal/proc"
	"mrpc/internal/stub"
)

// tcpSystem builds a System over the TCP transport on loopback with
// auto-assigned ports — the facade's side of the transport seam.
func tcpSystem(t *testing.T) *mrpc.System {
	t.Helper()
	clk := clock.NewReal()
	sys := mrpc.NewSystem(mrpc.SystemOptions{
		Clock:     clk,
		Transport: nettcp.New(clk, nettcp.Options{}),
	})
	t.Cleanup(sys.Stop)
	return sys
}

// TestFacadeOverTCP runs the quickstart shape — three servers, one
// client, reliable + unique + FIFO — over real sockets, including a
// crash/recover cycle through the facade's endpoint controls.
func TestFacadeOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket run in -short mode")
	}
	sys := tcpSystem(t)

	var execs atomic.Int64
	reg := stub.NewRegistry()
	echo := reg.Register("echo", func(_ *proc.Thread, args []byte) []byte {
		execs.Add(1)
		return args
	})
	cfg := mrpc.ExactlyOnce()
	cfg.RetransTimeout = 5 * time.Millisecond
	cfg.AcceptanceLimit = 2
	for id := mrpc.ProcID(1); id <= 3; id++ {
		if _, err := sys.AddServer(id, cfg, func() mrpc.App { return reg }); err != nil {
			t.Fatal(err)
		}
	}
	client, err := sys.AddClient(100, cfg)
	if err != nil {
		t.Fatal(err)
	}
	group := sys.Group(1, 2, 3)

	for i := 0; i < 10; i++ {
		reply, status, err := client.Call(echo, []byte{byte(i)}, group)
		if err != nil || status != mrpc.StatusOK || len(reply) != 1 || reply[0] != byte(i) {
			t.Fatalf("call %d: status %v reply %v err %v", i, status, reply, err)
		}
	}

	// One member down: 2-of-3 acceptance keeps completing over sockets.
	n3, _ := sys.Node(3)
	n3.Crash()
	for i := 10; i < 15; i++ {
		if _, status, err := client.Call(echo, []byte{byte(i)}, group); err != nil || status != mrpc.StatusOK {
			t.Fatalf("call %d with member down: status %v err %v", i, status, err)
		}
	}
	if err := n3.Recover(); err != nil {
		t.Fatal(err)
	}
	for i := 15; i < 20; i++ {
		if _, status, err := client.Call(echo, []byte{byte(i)}, group); err != nil || status != mrpc.StatusOK {
			t.Fatalf("call %d after recovery: status %v err %v", i, status, err)
		}
	}
	if execs.Load() < 20 {
		t.Fatalf("servers executed only %d times", execs.Load())
	}

	st := sys.Net().Stats()
	if st.Sent == 0 || st.Delivered == 0 {
		t.Fatalf("transport stats did not move: %+v", st)
	}
}

// TestSimOnlySurfacesOnTCP pins the seam's contract for simulator-only
// controls on a real transport: Sim() is nil, while the transport-agnostic
// per-node Link() is still there.
func TestSimOnlySurfacesOnTCP(t *testing.T) {
	sys := tcpSystem(t)
	if sys.Sim() != nil {
		t.Fatal("Sim() non-nil on a TCP transport")
	}
	n, err := sys.AddClient(1, mrpc.ExactlyOnce())
	if err != nil {
		t.Fatal(err)
	}
	if n.Link() == nil {
		t.Fatal("Link() nil")
	}
}

// runPipelined issues n no-wait calls of op to group inside one pipeline
// section, then collects them; it reports the first call that does not
// come back OK with its own payload echoed.
func runPipelined(client *mrpc.Node, op mrpc.OpID, group mrpc.Group, args []byte, n int) error {
	ids := make([]mrpc.CallID, n)
	client.PipelineBegin()
	for i := range ids {
		id, err := client.CallAsync(op, args, group)
		if err != nil {
			client.PipelineEnd()
			return err
		}
		ids[i] = id
	}
	client.PipelineEnd()
	for i, id := range ids {
		reply, status, err := client.Collect(id)
		if err != nil || status != mrpc.StatusOK || !bytes.Equal(reply, args) {
			return fmt.Errorf("call %d: status %v reply %v err %v", i, status, reply, err)
		}
	}
	return nil
}

// TestPipelinedRepliesCoalesceOverTCP: over sockets, a member answers a
// batch frame of 16 pipelined calls with one frame — the round costs one
// call batch and one reply batch per member of a 3-member group.
func TestPipelinedRepliesCoalesceOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket run in -short mode")
	}
	sys := tcpSystem(t)
	reg := stub.NewRegistry()
	echo := reg.Register("echo", func(_ *proc.Thread, args []byte) []byte { return args })
	cfg := mrpc.ExactlyOnce()
	cfg.Call = mrpc.CallAsynchronous
	cfg.RetransTimeout = time.Minute     // no retransmission may add a frame
	cfg.AcceptanceLimit = mrpc.AcceptAll // every reply frame is sent before Collect returns
	group := sys.Group(1, 2, 3)
	for _, id := range group {
		if _, err := sys.AddServer(id, cfg, func() mrpc.App { return reg }); err != nil {
			t.Fatal(err)
		}
	}
	client, err := sys.AddClient(100, cfg)
	if err != nil {
		t.Fatal(err)
	}

	before := sys.Net().Stats()
	if err := runPipelined(client, echo, group, []byte("x"), 16); err != nil {
		t.Fatal(err)
	}
	sys.Quiesce()
	after := sys.Net().Stats()
	if sent, batches := after.Sent-before.Sent, after.Batches-before.Batches; sent != 6 || batches != 6 {
		t.Fatalf("16 pipelined calls to 3 members sent %d frames (%d batches), want 6 batches: "+
			"one call frame and one reply frame per member", sent, batches)
	}
}
