//go:build mrpcdebug

package core

import (
	"testing"

	"mrpc/internal/msg"
)

func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic (%s), got none", want)
		}
	}()
	f()
}

func TestPoolDebugDoublePut(t *testing.T) {
	p := newPool(func() any { return new(NetEvent) })
	ev := p.Get().(*NetEvent)
	p.Put(ev)
	mustPanic(t, "double-Put", func() { p.Put(ev) })
}

func TestPoolDebugDirtyGet(t *testing.T) {
	p := newPool(func() any { return new(NetEvent) })
	ev := p.Get().(*NetEvent)
	p.Put(ev)
	ev.Msg = new(msg.NetMsg) // use-after-Put scribbles over the sentinel
	mustPanic(t, "dirty Get", func() { checkPoison(ev) })
}

func TestPoolDebugCleanCycle(t *testing.T) {
	p := newPool(func() any { return new(ClientRecord) })
	rec := p.Get().(*ClientRecord)
	if rec.NRes != 0 {
		t.Fatalf("fresh record not zeroed: NRes=%d", rec.NRes)
	}
	rec.NRes = 3
	*rec = ClientRecord{}
	p.Put(rec)
	if rec.NRes != poisonInt {
		t.Fatalf("Put did not poison: NRes=%d", rec.NRes)
	}
	got := p.Get().(*ClientRecord)
	if got == rec && got.NRes != 0 {
		t.Fatalf("Get did not restore the sentinel field: NRes=%d", got.NRes)
	}
}

func TestPoolDebugPoisonAllShapes(t *testing.T) {
	// Every pooled type round-trips poison -> check cleanly.
	for _, x := range []any{
		new(ClientRecord), new(ServerRecord), new(NetEvent),
		new(msg.UserMsg), new(msg.CallKey), new(msg.CallID), new(relEntry),
	} {
		poison(x)
		checkPoison(x)
	}
}

// TestDebugDropOnlySweepTakesExecutingCall: a generation's calls share one
// kill token, so DropServerCall (which kills nothing) must never take an
// executing call; only the orphan sweep, which kills the generation first,
// may.
func TestDebugDropOnlySweepTakesExecutingCall(t *testing.T) {
	fw := newBareNode(t, 1, discardNet{}, nil, nil)
	put := func(id msg.CallID) msg.CallKey {
		rec := getServerRec()
		*rec = ServerRecord{Key: msg.CallKey{Client: 100, ID: id}, Client: 100, Inc: 1, executing: true}
		if !fw.PutServerRec(rec) {
			t.Fatal("put failed")
		}
		return msg.CallKey{Client: 100, ID: id}
	}
	k := put(1)
	mustPanic(t, "DropServerCall of an executing call", func() { fw.DropServerCall(k) })
	put(2)
	fw.dropCallsOlderThan(100, 2)
	if n := fw.PendingServerCalls(); n != 0 {
		t.Fatalf("sweep left %d records", n)
	}
}
