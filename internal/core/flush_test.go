package core

import (
	"testing"

	"mrpc/internal/msg"
)

func replyTo(client msg.ProcID, id msg.CallID) *msg.NetMsg {
	return &msg.NetMsg{Type: msg.OpReply, ID: id, Client: client, Sender: 1}
}

// sentSince returns the sends logged after the first from entries.
func sentSince(net *memNet, from int) []sentRec {
	return net.sentLog()[from:]
}

func expectFrame(t *testing.T, got sentRec, to msg.ProcID, typ msg.NetOp, ids ...msg.CallID) {
	t.Helper()
	if got.To != to || got.M.Type != typ {
		t.Fatalf("sent %v to %d, want %v to %d", got.M.Type, got.To, typ, to)
	}
	if typ != msg.OpBatch {
		return
	}
	if len(got.M.Batch) != len(ids) {
		t.Fatalf("batch of %d, want %d", len(got.M.Batch), len(ids))
	}
	for i, sub := range got.M.Batch {
		if sub.ID != ids[i] {
			t.Fatalf("batch sub-message %d has ID %d, want %d", i, sub.ID, ids[i])
		}
	}
}

// TestReplyHoldParksOnlyReplies: under a reply hold, replies to the held
// lane park; other lanes are untouched; any other message drains the lane
// at once and carries the parked replies in its frame; the last release
// sends what is left; a full lane goes regardless.
func TestReplyHoldParksOnlyReplies(t *testing.T) {
	net := newMemNet()
	f := addNode(t, net, 1, nodeOpts{}).fw.flusher

	f.holdReplies(100)
	f.Push(100, replyTo(100, 1))
	f.Push(100, replyTo(100, 2))
	if got := sentSince(net, 0); len(got) != 0 {
		t.Fatalf("held replies were sent: %d frames", len(got))
	}
	f.Push(200, replyTo(200, 3))
	got := sentSince(net, 0)
	if len(got) != 1 {
		t.Fatalf("reply to an unheld lane: %d frames sent, want 1", len(got))
	}
	expectFrame(t, got[0], 200, msg.OpReply)

	f.Push(100, &msg.NetMsg{Type: msg.OpCallAck, ID: 9, Client: 100, Sender: 1})
	got = sentSince(net, 1)
	if len(got) != 1 {
		t.Fatalf("non-reply push to a held lane: %d frames sent, want 1", len(got))
	}
	expectFrame(t, got[0], 100, msg.OpBatch, 1, 2, 9)

	// Holds nest: only the last release flushes.
	f.holdReplies(100)
	f.Push(100, replyTo(100, 4))
	f.releaseReplies(100)
	if got := sentSince(net, 2); len(got) != 0 {
		t.Fatalf("reply sent while a hold is still open: %d frames", len(got))
	}
	f.releaseReplies(100)
	got = sentSince(net, 2)
	if len(got) != 1 {
		t.Fatalf("last release: %d frames sent, want 1", len(got))
	}
	expectFrame(t, got[0], 100, msg.OpReply)

	f.SetMax(2)
	f.holdReplies(100)
	f.Push(100, replyTo(100, 5))
	f.Push(100, replyTo(100, 6))
	got = sentSince(net, 3)
	if len(got) != 1 {
		t.Fatalf("full held lane: %d frames sent, want 1", len(got))
	}
	expectFrame(t, got[0], 100, msg.OpBatch, 5, 6)
	f.releaseReplies(100)
	if got := sentSince(net, 4); len(got) != 0 {
		t.Fatalf("release of an empty lane sent %d frames", len(got))
	}
}

// TestReplyHoldYieldsToWaitersAndForceFlush: a caller parking on a reply
// sends the parked replies and keeps the hold from parking more until it
// wakes; ForceFlush empties a held lane.
func TestReplyHoldYieldsToWaitersAndForceFlush(t *testing.T) {
	net := newMemNet()
	f := addNode(t, net, 1, nodeOpts{}).fw.flusher

	f.holdReplies(100)
	f.Push(100, replyTo(100, 1))
	f.waitBegin()
	got := sentSince(net, 0)
	if len(got) != 1 {
		t.Fatalf("waiting caller: %d frames sent, want the parked reply", len(got))
	}
	expectFrame(t, got[0], 100, msg.OpReply)
	f.Push(100, replyTo(100, 2))
	if got := sentSince(net, 1); len(got) != 1 {
		t.Fatalf("reply pushed while a caller waits: %d frames sent, want 1", len(got))
	}
	f.waitEnd()

	f.Push(100, replyTo(100, 3))
	if got := sentSince(net, 2); len(got) != 0 {
		t.Fatalf("reply after the wait ended was sent: %d frames", len(got))
	}
	f.ForceFlush()
	got = sentSince(net, 2)
	if len(got) != 1 {
		t.Fatalf("ForceFlush of a held lane: %d frames sent, want 1", len(got))
	}
	expectFrame(t, got[0], 100, msg.OpReply)
	f.releaseReplies(100)
	if got := sentSince(net, 3); len(got) != 0 {
		t.Fatalf("release after ForceFlush sent %d frames", len(got))
	}
}
