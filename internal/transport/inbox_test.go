package transport_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"mrpc/internal/msg"
	"mrpc/internal/transport"
)

// TestInboxSharedGroupDecode: wire deliveries decode concurrently on one
// inbox's workers and share the last decoded server group between them.
// Frames alternating between two groups, single and batched, race into
// one inbox; every delivered message must still carry the group its own
// encoding names. Under -race this also shows the shared group is only
// ever read.
func TestInboxSharedGroupDecode(t *testing.T) {
	groups := []msg.Group{msg.NewGroup(1, 2, 3), msg.NewGroup(1, 2, 4)}
	frame := func(id msg.CallID) *msg.NetMsg {
		return &msg.NetMsg{Type: msg.OpCall, ID: id, Client: 9, Sender: 9,
			Server: groups[id%2], Args: []byte("x")}
	}
	var checked, wrong atomic.Int64
	check := func(m *msg.NetMsg) {
		if !m.Server.Equal(groups[m.ID%2]) {
			wrong.Add(1)
		}
		checked.Add(1)
	}
	f := transport.NewFlight()
	in := f.NewInbox(func(m *msg.NetMsg) {
		if m.Type != msg.OpBatch {
			check(m)
			return
		}
		for _, s := range m.Batch {
			check(s)
		}
	})
	const senders, frames = 8, 200
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < frames; i++ {
				id := msg.CallID(s*frames + i)
				m := frame(id)
				if i%4 == 3 {
					// A batch that switches groups mid-frame.
					m = msg.NewBatch(9, []*msg.NetMsg{frame(id), frame(id + 1), frame(id)})
				}
				f.Add(1)
				in.Dispatch(transport.Delivery{Wire: m.Encode()})
			}
		}(s)
	}
	wg.Wait()
	f.Retire()
	if want := int64(senders * (frames + frames/4*2)); checked.Load() != want {
		t.Fatalf("checked %d messages, want %d", checked.Load(), want)
	}
	if n := wrong.Load(); n > 0 {
		t.Fatalf("%d delivered messages carry another frame's group", n)
	}
}
