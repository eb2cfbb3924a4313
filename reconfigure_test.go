package mrpc_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"mrpc"
	"mrpc/internal/config"
)

// lossyReconfigSystem builds the reconfiguration test bed: three servers and
// one client on a 20% lossy network, running synchronous exactly-once RPC.
func lossyReconfigSystem(t *testing.T) (*mrpc.System, *mrpc.Node, []*ckApp, mrpc.Group) {
	t.Helper()
	sys := mrpc.NewSystem(mrpc.SystemOptions{
		Net: mrpc.NetParams{Seed: 7, LossProb: 0.2, MaxDelay: time.Millisecond},
	})
	t.Cleanup(sys.Stop)

	cfg := reconfigExactlyOnce()
	apps := make([]*ckApp, 3)
	for i := range apps {
		app := &ckApp{}
		apps[i] = app
		if _, err := sys.AddServer(mrpc.ProcID(i+1), cfg, func() mrpc.App { return app }); err != nil {
			t.Fatal(err)
		}
	}
	client, err := sys.AddClient(100, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys, client, apps, sys.Group(1, 2, 3)
}

// reconfigExactlyOnce is the exactly-once preset tuned for a lossy test net.
func reconfigExactlyOnce() mrpc.Config {
	cfg := mrpc.ExactlyOnce()
	cfg.RetransTimeout = 5 * time.Millisecond
	return cfg
}

// reconfigReplicated is the replicated-service preset tuned the same way.
func reconfigReplicated() mrpc.Config {
	cfg := mrpc.ReplicatedService()
	cfg.RetransTimeout = 5 * time.Millisecond
	return cfg
}

// callBatch issues calls from `callers` concurrent goroutines, tagging each
// payload with prefix; every call must complete with StatusOK. It returns
// all payloads issued.
func callBatch(t *testing.T, client *mrpc.Node, group mrpc.Group, prefix string, callers, each int) []string {
	t.Helper()
	var mu sync.Mutex
	var payloads []string
	var firstErr error
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				p := fmt.Sprintf("%s-g%d-%d", prefix, g, i)
				reply, status, err := client.Call(1, []byte(p), group)
				mu.Lock()
				if firstErr == nil {
					switch {
					case err != nil:
						firstErr = fmt.Errorf("call %s: %v", p, err)
					case status != mrpc.StatusOK:
						firstErr = fmt.Errorf("call %s: status %v", p, status)
					case string(reply) != p:
						firstErr = fmt.Errorf("call %s: reply %q", p, reply)
					}
				}
				payloads = append(payloads, p)
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	return payloads
}

// TestReconfigureExactlyOnceToReplicatedService is the issue's acceptance
// scenario: a group running synchronous exactly-once RPC under 20% message
// loss is hot-swapped to total-order replicated-service semantics and back,
// with callers running concurrently throughout (including during the swaps).
// No call is dropped or double-executed, and the calls issued under the
// replicated regime are executed in one total order on every server.
func TestReconfigureExactlyOnceToReplicatedService(t *testing.T) {
	sys, client, apps, group := lossyReconfigSystem(t)

	// A background caller runs across both swaps: its synchronous calls
	// block at the admission gate during a drain and complete afterwards —
	// every one must still return OK.
	stop := make(chan struct{})
	bgDone := make(chan error, 1)
	go func() {
		i := 0
		for {
			select {
			case <-stop:
				bgDone <- nil
				return
			default:
			}
			p := fmt.Sprintf("bg-%d", i)
			i++
			_, status, err := client.Call(1, []byte(p), group)
			if err != nil || status != mrpc.StatusOK {
				bgDone <- fmt.Errorf("background call %s: %v %v", p, status, err)
				return
			}
		}
	}()

	// Phase 1: exactly-once.
	callBatch(t, client, group, "p1", 4, 10)

	// Hot-swap the whole group to total-order replicated service.
	if err := sys.Reconfigure(reconfigReplicated()); err != nil {
		t.Fatalf("reconfigure to replicated service: %v", err)
	}
	if got := client.Config().Ordering; got != mrpc.OrderTotal {
		t.Fatalf("post-swap config ordering = %v", got)
	}

	// Phase 2: concurrent callers under the new regime. AcceptAll means a
	// completed call has executed on every server, so after the batch each
	// server log holds each phase-2 payload exactly once, and total order
	// means the payloads' relative order is identical everywhere.
	p2 := callBatch(t, client, group, "p2", 4, 10)

	p2set := make(map[string]bool, len(p2))
	for _, p := range p2 {
		p2set[p] = true
	}
	var orders [3][]string
	for i, app := range apps {
		counts := map[string]int{}
		for _, e := range app.executed() {
			if p2set[e] {
				counts[e]++
				orders[i] = append(orders[i], e)
			}
		}
		for _, p := range p2 {
			if counts[p] != 1 {
				t.Fatalf("server %d executed %s %d times, want exactly once", i+1, p, counts[p])
			}
		}
	}
	for i := 1; i < 3; i++ {
		if strings.Join(orders[i], ",") != strings.Join(orders[0], ",") {
			t.Fatalf("servers disagree on total order:\n s1: %v\n s%d: %v", orders[0], i+1, orders[i])
		}
	}

	// Swap back to exactly-once and keep serving.
	if err := sys.Reconfigure(reconfigExactlyOnce()); err != nil {
		t.Fatalf("reconfigure back: %v", err)
	}
	callBatch(t, client, group, "p3", 4, 10)

	close(stop)
	if err := <-bgDone; err != nil {
		t.Fatal(err)
	}

	// Exactly-once across all phases and both swaps: no server executed any
	// payload twice (migrated duplicate-suppression state covers calls whose
	// retransmissions straddle a swap).
	for i, app := range apps {
		counts := map[string]int{}
		for _, e := range app.executed() {
			counts[e]++
			if counts[e] > 1 {
				t.Fatalf("server %d executed %q %d times", i+1, e, counts[e])
			}
		}
	}
}

// TestReconfigureIllegalTransitionRejected verifies the planner's gate at
// the facade: atomicity changes are rejected with a diagnosable error, the
// configuration is untouched, and the node keeps serving.
func TestReconfigureIllegalTransitionRejected(t *testing.T) {
	sys, client, _, group := lossyReconfigSystem(t)

	atomicCfg := mrpc.AtMostOnce()
	atomicCfg.RetransTimeout = 5 * time.Millisecond
	err := sys.Reconfigure(atomicCfg)
	if !errors.Is(err, config.ErrTransitionAtomic) {
		t.Fatalf("system reconfigure to atomic: err=%v, want ErrTransitionAtomic", err)
	}
	if !strings.Contains(err.Error(), "restart the node") {
		t.Fatalf("error is not diagnosable: %v", err)
	}
	if err := client.Reconfigure(atomicCfg); !errors.Is(err, config.ErrTransitionAtomic) {
		t.Fatalf("node reconfigure to atomic: err=%v", err)
	}
	if got := client.Config().Execution; got != mrpc.ExecConcurrent {
		t.Fatalf("config mutated by rejected reconfigure: execution=%v", got)
	}
	callBatch(t, client, group, "after-reject", 2, 3)
}

// TestReconfigureDownNodeAdoptsConfigOnRecover verifies that a crashed node
// skipped by a system-wide reconfiguration comes back under the new
// configuration.
func TestReconfigureDownNodeAdoptsConfigOnRecover(t *testing.T) {
	sys, client, _, group := lossyReconfigSystem(t)

	srv, _ := sys.Node(3)
	srv.Crash()
	if err := sys.Reconfigure(reconfigReplicated()); err != nil {
		t.Fatalf("reconfigure with node 3 down: %v", err)
	}
	if err := srv.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Config().Ordering; got != mrpc.OrderTotal {
		t.Fatalf("recovered node ordering = %v, want total", got)
	}
	callBatch(t, client, group, "post-recover", 2, 3)
}

// TestReconfigureRandomLegalTransitions walks the enumerated configuration
// space at random under 20% loss: each step picks a random reliable target,
// applies it through System.Reconfigure (with one call deliberately
// in-flight to exercise the drain), and serves a small batch under the new
// regime. Illegal targets must fail with the atomic-transition error and
// leave the system serving.
func TestReconfigureRandomLegalTransitions(t *testing.T) {
	if testing.Short() {
		t.Skip("random-walk stress")
	}
	sys, client, _, group := lossyReconfigSystem(t)
	rng := rand.New(rand.NewSource(42))

	// Unreliable configurations are legal but cannot guarantee completion
	// on a lossy network; the walk stays inside the reliable half.
	var pool []mrpc.Config
	for _, c := range config.Enumerate() {
		if c.Reliable {
			c.RetransTimeout = 5 * time.Millisecond
			pool = append(pool, c)
		}
	}

	call := func(tag string) {
		t.Helper()
		p := fmt.Sprintf("%s-%d", tag, rng.Int())
		cfg := client.Config()
		if cfg.Call == mrpc.CallAsynchronous {
			id, err := client.CallAsync(1, []byte(p), group)
			if err == nil {
				if reply, status, cerr := client.Collect(id); cerr != nil || status != mrpc.StatusOK || string(reply) != p {
					t.Fatalf("%s: %v %v %q", p, status, cerr, reply)
				}
				return
			}
			// The config snapshot raced a call-mode swap and CallAsync
			// rejected the issue before admitting it; Call below works
			// under either mode.
		}
		if reply, status, err := client.Call(1, []byte(p), group); err != nil || status != mrpc.StatusOK || string(reply) != p {
			t.Fatalf("%s: %v %v %q", p, status, err, reply)
		}
	}

	steps := 12
	for i := 0; i < steps; i++ {
		target := pool[rng.Intn(len(pool))]
		t.Logf("step %d: -> %s", i, target)
		if _, err := config.PlanTransition(client.Config(), target); err != nil {
			if !errors.Is(err, config.ErrTransitionAtomic) && !errors.Is(err, config.ErrTransitionAtomicParams) {
				t.Fatalf("step %d: unexpected planner error: %v", i, err)
			}
			if rerr := sys.Reconfigure(target); !errors.Is(rerr, err) {
				t.Fatalf("step %d: system accepted illegal transition: %v", i, rerr)
			}
			continue
		}

		// One call in flight while the swap drains.
		inflight := make(chan struct{})
		go func() {
			defer close(inflight)
			call(fmt.Sprintf("inflight-%d", i))
		}()
		if err := sys.Reconfigure(target); err != nil {
			t.Fatalf("step %d: reconfigure to %s: %v", i, target, err)
		}
		<-inflight
		for j := 0; j < 3; j++ {
			call(fmt.Sprintf("step-%d", i))
		}
	}
}

// TestDetectorCrashRecoverRace drives the heartbeat failure detector's
// lifecycle hard: one server crashes and recovers in a loop while callers
// hammer the group and heartbeats flow, so the endpoint handler's detector
// reads race the start/crash writes. Run under -race this is the regression
// test for the unlocked Node.detector field.
func TestDetectorCrashRecoverRace(t *testing.T) {
	sys := mrpc.NewSystem(mrpc.SystemOptions{
		Membership:        mrpc.MembershipDetector,
		HeartbeatInterval: 2 * time.Millisecond,
		Net:               mrpc.NetParams{Seed: 3, LossProb: 0.05},
	})
	defer sys.Stop()

	cfg := reconfigExactlyOnce()
	for i := 1; i <= 2; i++ {
		if _, err := sys.AddServer(mrpc.ProcID(i), cfg, func() mrpc.App { return &ckApp{} }); err != nil {
			t.Fatal(err)
		}
	}
	client, err := sys.AddClient(100, cfg)
	if err != nil {
		t.Fatal(err)
	}
	group := sys.Group(1, 2)
	flaky, _ := sys.Node(2)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Server 1 stays up, acceptance limit is 1: the call
				// completes whether or not server 2 is alive.
				if _, status, err := client.Call(1, []byte(fmt.Sprintf("x%d", i)), group); err != nil || status != mrpc.StatusOK {
					t.Errorf("call: %v %v", status, err)
					return
				}
			}
		}()
	}

	for i := 0; i < 25; i++ {
		flaky.Crash()
		time.Sleep(2 * time.Millisecond)
		if err := flaky.Recover(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
}

// drainBed is a lossless group of three servers and a client whose servers
// register echo and gate. gate signals entered once, waits for release,
// then runs nest (when set) and echoes its argument.
type drainBed struct {
	sys         *mrpc.System
	client      *mrpc.Node
	echo, gate  mrpc.OpID
	entered     chan struct{}
	release     chan struct{}
	nest        func(args []byte)
	releaseOnce sync.Once
}

func newDrainBed(t *testing.T, timeout time.Duration) *drainBed {
	t.Helper()
	b := &drainBed{
		sys:     mrpc.NewSystem(mrpc.SystemOptions{ReconfigureTimeout: timeout}),
		entered: make(chan struct{}, 1),
		release: make(chan struct{}),
	}
	t.Cleanup(b.sys.Stop)
	t.Cleanup(b.open) // a failing test must not leave a dispatch blocked
	reg := mrpc.NewRegistry()
	b.echo = reg.Register("echo", func(_ *mrpc.Thread, args []byte) []byte { return args })
	b.gate = reg.Register("gate", func(_ *mrpc.Thread, args []byte) []byte {
		select {
		case b.entered <- struct{}{}:
		default:
		}
		<-b.release
		if b.nest != nil {
			b.nest(args)
		}
		return args
	})
	cfg := reconfigExactlyOnce()
	for id := mrpc.ProcID(1); id <= 3; id++ {
		if _, err := b.sys.AddServer(id, cfg, func() mrpc.App { return reg }); err != nil {
			t.Fatal(err)
		}
	}
	var err error
	if b.client, err = b.sys.AddClient(100, cfg); err != nil {
		t.Fatal(err)
	}
	return b
}

func (b *drainBed) open() { b.releaseOnce.Do(func() { close(b.release) }) }

// drainClass returns a drain-class target: only the retransmission period
// changes.
func (b *drainBed) drainClass() mrpc.Config {
	cfg := reconfigExactlyOnce()
	cfg.RetransTimeout = 6 * time.Millisecond
	return cfg
}

// callGate issues a gate call from the client to server and waits until
// the procedure runs; the returned channel yields the call's outcome.
func (b *drainBed) callGate(t *testing.T, server mrpc.ProcID) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		reply, status, err := b.client.Call(b.gate, []byte("parent"), b.sys.Group(server))
		if err == nil && (status != mrpc.StatusOK || string(reply) != "parent") {
			err = fmt.Errorf("parent call: status %v reply %q", status, reply)
		}
		done <- err
	}()
	select {
	case <-b.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the gate procedure never ran")
	}
	return done
}

// await fails the test unless ch yields nil within 10 s.
func await(t *testing.T, ch <-chan error, what string) {
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

// TestReconfigureNestedCallDuringDrain fences the nested-call wedge
// (DESIGN.md D14): a procedure that calls synchronously through its own
// node while that node drains waits at the closed admission gate inside
// its dispatch, and a swap would wait for that dispatch forever. Its
// server record keeps the drain from settling instead, so the
// reconfiguration times out and reopens admission, after which the nested
// call and its parent both complete. Both entry points are checked.
func TestReconfigureNestedCallDuringDrain(t *testing.T) {
	const timeout = 300 * time.Millisecond
	for _, tc := range []struct {
		name        string
		reconfigure func(sys *mrpc.System, n *mrpc.Node, cfg mrpc.Config) error
	}{
		{"node", func(_ *mrpc.System, n *mrpc.Node, cfg mrpc.Config) error { return n.Reconfigure(cfg) }},
		{"system", func(sys *mrpc.System, _ *mrpc.Node, cfg mrpc.Config) error { return sys.Reconfigure(cfg) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newDrainBed(t, timeout)
			n1, _ := b.sys.Node(1)
			nested := make(chan error, 1)
			b.nest = func(args []byte) {
				reply, status, err := n1.Call(b.echo, []byte("nested"), b.sys.Group(2))
				if err == nil && (status != mrpc.StatusOK || string(reply) != "nested") {
					err = fmt.Errorf("nested call: status %v reply %q", status, reply)
				}
				nested <- err
			}
			parent := b.callGate(t, 1)

			reconfigured := make(chan error, 1)
			start := time.Now()
			go func() { reconfigured <- tc.reconfigure(b.sys, n1, b.drainClass()) }()
			// Admission closes right after planning, well inside this
			// pause; the nested call is then issued into the closed gate.
			time.Sleep(timeout / 3)
			b.open()

			select {
			case err := <-reconfigured:
				if err == nil {
					t.Fatal("Reconfigure swapped while a procedure waited at its node's closed admission gate")
				}
				if took := time.Since(start); took > 5*timeout {
					t.Fatalf("Reconfigure took %v, want at most %v", took, 5*timeout)
				}
			case <-time.After(5 * timeout):
				t.Fatal("Reconfigure wedged behind a nested call made during its own node's drain")
			}
			await(t, nested, "the nested call never completed after the drain gave up")
			await(t, parent, "the parent call never completed after the drain gave up")

			// Admission is open again on the drained node and the client.
			for _, n := range []*mrpc.Node{n1, b.client} {
				if reply, status, err := n.Call(b.echo, []byte("after"), b.sys.Group(3)); err != nil || status != mrpc.StatusOK || string(reply) != "after" {
					t.Fatalf("node %d call after the failed drain: status %v reply %q err %v", n.ID(), status, reply, err)
				}
			}
		})
	}
}

// TestReconfigureTimeoutNamesBusyNode: when a drain, or Settle, times out,
// the error names each node still busy and what it holds, so a stuck
// reconfiguration points at its member.
func TestReconfigureTimeoutNamesBusyNode(t *testing.T) {
	b := newDrainBed(t, 100*time.Millisecond)
	parent := b.callGate(t, 3)

	err := b.sys.Reconfigure(b.drainClass())
	if err == nil {
		t.Fatal("Reconfigure drained while node 3 held a blocked procedure")
	}
	settleErr := b.sys.Settle(b.sys.Clock().Now().Add(50 * time.Millisecond))
	if settleErr == nil {
		t.Fatal("Settle settled while node 3 held a blocked procedure")
	}
	for _, err := range []error{err, settleErr} {
		msg := err.Error()
		if !strings.Contains(msg, "node3: waiting=0 held=1 retrans=0") ||
			!strings.Contains(msg, "node100: waiting=1 ") {
			t.Fatalf("timeout error does not name the busy nodes: %v", err)
		}
		if strings.Contains(msg, "node1:") || strings.Contains(msg, "node2:") {
			t.Fatalf("timeout error names an idle node: %v", err)
		}
	}

	b.open()
	await(t, parent, "the blocked call never completed")
	if err := b.sys.Settle(b.sys.Clock().Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := b.sys.Reconfigure(b.drainClass()); err != nil {
		t.Fatal(err)
	}
}
