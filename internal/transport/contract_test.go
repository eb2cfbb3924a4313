package transport_test

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mrpc/internal/clock"
	"mrpc/internal/msg"
	"mrpc/internal/netsim"
	"mrpc/internal/nettcp"
	"mrpc/internal/transport"
)

// The receive-side contract every transport inherits from transport.Inbox
// and transport.Flight, run against both implementations.

var impls = []struct {
	name string
	new  func() transport.Transport
}{
	{"netsim", func() transport.Transport { return netsim.New(clock.NewReal(), netsim.Params{Seed: 1}) }},
	{"nettcp", func() transport.Transport { return nettcp.New(clock.NewReal(), nettcp.Options{}) }},
}

func forEach(t *testing.T, f func(t *testing.T, tr transport.Transport)) {
	for _, impl := range impls {
		t.Run(impl.name, func(t *testing.T) {
			tr := impl.new()
			defer tr.Stop()
			f(t, tr)
		})
	}
}

func attach(t *testing.T, tr transport.Transport, id msg.ProcID, h transport.Handler) transport.Endpoint {
	t.Helper()
	ep, err := tr.Attach(id, h)
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

func call(id msg.CallID) *msg.NetMsg {
	return &msg.NetMsg{Type: msg.OpCall, ID: id, Client: 1, Sender: 1}
}

// waitFor polls cond until it holds or the deadline passes. A socket
// transport's Quiesce cannot see a frame the kernel holds between writer
// and reader, so cross-endpoint arrivals are awaited by polling.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// blocker is a handler that parks every arrival whose call id is blockID
// until release is closed, and reports every other arrival on got.
type blocker struct {
	blockID msg.CallID
	entered chan struct{}
	release chan struct{}
	got     chan msg.CallID
	done    atomic.Bool // a blocked arrival has returned
}

func newBlocker(id msg.CallID) *blocker {
	return &blocker{blockID: id, entered: make(chan struct{}, 8),
		release: make(chan struct{}), got: make(chan msg.CallID, 8)}
}

func (b *blocker) handle(m *msg.NetMsg) {
	if m.ID != b.blockID {
		b.got <- m.ID
		return
	}
	b.entered <- struct{}{}
	<-b.release
	b.done.Store(true)
}

func TestBlockedHandlerDoesNotDelayNextArrival(t *testing.T) {
	forEach(t, func(t *testing.T, tr transport.Transport) {
		b := newBlocker(1)
		from := attach(t, tr, 1, func(*msg.NetMsg) {})
		attach(t, tr, 2, b.handle)

		from.Push(2, call(1))
		<-b.entered
		from.Push(2, call(2))
		select {
		case id := <-b.got:
			if id != 2 {
				t.Fatalf("delivered call %d, want 2", id)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("an arrival waited behind a blocked handler")
		}
		close(b.release)
		tr.Quiesce()
	})
}

func TestQuiesceWaitsForRunningHandler(t *testing.T) {
	forEach(t, func(t *testing.T, tr transport.Transport) {
		b := newBlocker(1)
		ep := attach(t, tr, 1, b.handle)

		// A self-send is counted on the sender's side of the transport, so
		// Quiesce sees it from admission on, on either substrate.
		ep.Push(1, call(1))
		<-b.entered
		quiesced := make(chan bool)
		go func() {
			tr.Quiesce()
			quiesced <- b.done.Load()
		}()
		select {
		case <-quiesced:
			t.Fatal("Quiesce returned while a handler was running")
		case <-time.After(20 * time.Millisecond):
		}
		close(b.release)
		if !<-quiesced {
			t.Fatal("Quiesce returned before the handler did")
		}
	})
}

func TestDownEndpointDropsAtDelivery(t *testing.T) {
	forEach(t, func(t *testing.T, tr transport.Transport) {
		var handled atomic.Int64
		from := attach(t, tr, 1, func(*msg.NetMsg) {})
		to := attach(t, tr, 2, func(*msg.NetMsg) { handled.Add(1) })

		to.SetUp(false)
		from.Push(2, call(1))
		waitFor(t, "a down drop", func() bool { return tr.Stats().DownDrops == 1 })
		tr.Quiesce()
		if n := handled.Load(); n != 0 {
			t.Fatalf("down endpoint's handler ran %d times", n)
		}
		if s := tr.Stats(); s.Delivered != 0 {
			t.Fatalf("Delivered = %d after a down drop, want 0", s.Delivered)
		}
		if in := to.Stats().Ingress; in != 0 {
			t.Fatalf("Ingress = %d after a down drop, want 0", in)
		}

		to.SetUp(true)
		from.Push(2, call(2))
		waitFor(t, "delivery after SetUp(true)", func() bool { return handled.Load() == 1 })
		if s := tr.Stats(); s.Delivered != 1 || s.DownDrops != 1 {
			t.Fatalf("stats = %+v, want Delivered 1, DownDrops 1", s)
		}
		if in := to.Stats().Ingress; in != 1 {
			t.Fatalf("Ingress = %d, want 1", in)
		}
	})
}

func TestStopRetiresParkedWorkers(t *testing.T) {
	for _, impl := range impls {
		t.Run(impl.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			tr := impl.new()
			b := newBlocker(1)
			ep := attach(t, tr, 1, b.handle)

			// Two concurrently blocked handlers need two workers; once
			// released, both park in the pool.
			ep.Push(1, call(1))
			ep.Push(1, call(1))
			<-b.entered
			<-b.entered
			close(b.release)
			tr.Quiesce()

			tr.Stop()
			waitFor(t, "goroutines back to baseline", func() bool {
				return runtime.NumGoroutine() <= base
			})
		})
	}
}
