package msg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"testing"
)

func sampleBatch() *NetMsg {
	subs := []*NetMsg{
		{Type: OpCall, ID: 7, Client: 100, Op: 3, Args: []byte("first"),
			Server: NewGroup(1, 2), Sender: 100, Inc: 1},
		{Type: OpCall, ID: 8, Client: 100, Op: 3, Args: []byte("second"),
			Server: NewGroup(1, 2), Sender: 100, Inc: 1},
		{Type: OpCallAck, ID: 5, Client: 100, Sender: 2, AckID: 5},
	}
	return NewBatch(100, subs)
}

func TestNewBatchFreezes(t *testing.T) {
	b := sampleBatch()
	if !b.Frozen() {
		t.Fatal("NewBatch returned an unfrozen frame")
	}
	for i, s := range b.Batch {
		if !s.Frozen() {
			t.Fatalf("sub-message %d not frozen by NewBatch", i)
		}
	}
}

func TestNewBatchRejectsNesting(t *testing.T) {
	inner := sampleBatch()
	defer func() {
		if recover() == nil {
			t.Fatal("NewBatch accepted a nested batch frame")
		}
	}()
	NewBatch(100, []*NetMsg{inner})
}

func TestBatchRoundTrip(t *testing.T) {
	b := sampleBatch()
	wire := b.Encode()
	if len(wire) != b.EncodedLen() {
		t.Fatalf("EncodedLen = %d, actual %d", b.EncodedLen(), len(wire))
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != OpBatch || got.Sender != b.Sender {
		t.Fatalf("frame header mismatch: %+v", got)
	}
	if len(got.Batch) != len(b.Batch) {
		t.Fatalf("decoded %d sub-messages, want %d", len(got.Batch), len(b.Batch))
	}
	for i, want := range b.Batch {
		g := got.Batch[i]
		// Compare the exported fields; frozen state differs by design
		// (Decode copies, so its results start mutable).
		w := want.Clone()
		gc := g.Clone()
		if !reflect.DeepEqual(w, gc) {
			t.Fatalf("sub-message %d mismatch:\n in  %+v\n out %+v", i, w, gc)
		}
	}
}

func TestBatchDecodeShared(t *testing.T) {
	b := sampleBatch()
	wire := b.Encode()
	got, err := DecodeShared(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Frozen() {
		t.Fatal("DecodeShared returned an unfrozen frame")
	}
	for i, s := range got.Batch {
		if !s.Frozen() {
			t.Fatalf("shared-decoded sub-message %d not frozen", i)
		}
		if len(s.Args) > 0 {
			// Sub-message Args must borrow the one shared wire buffer.
			argByte := &s.Args[0]
			*argByte ^= 0xFF
			if !bytes.Contains(wire, s.Args) {
				t.Fatalf("sub-message %d Args copied instead of borrowed", i)
			}
			*argByte ^= 0xFF
			if cap(s.Args) != len(s.Args) {
				t.Fatalf("sub-message %d Args not capacity-clamped", i)
			}
		}
	}
}

func TestBatchDecodeErrors(t *testing.T) {
	b := sampleBatch()
	good := b.Encode()

	// Truncating the frame fails the exact-length check.
	if _, err := Decode(good[:len(good)-1]); !errors.Is(err, ErrShortMessage) {
		t.Fatalf("truncated frame: err = %v, want ErrShortMessage", err)
	}

	// Corrupt the count so a sub-frame is missing.
	bad := append([]byte(nil), good...)
	off := fixedHeaderLen // payload starts right after the header (no group/VC)
	binary.BigEndian.PutUint16(bad[off:], uint16(len(b.Batch)+1))
	if _, err := Decode(bad); err == nil {
		t.Fatal("over-counted batch accepted")
	}
	binary.BigEndian.PutUint16(bad[off:], uint16(len(b.Batch)-1))
	if _, err := Decode(bad); err == nil {
		t.Fatal("batch with trailing sub-frame bytes accepted")
	}

	// A nested batch on the wire is rejected even though the codec could
	// mechanically parse it.
	inner := &NetMsg{Type: OpCall, ID: 1, Client: 100, Sender: 100}
	innerBatch := NewBatch(100, []*NetMsg{inner})
	outer := &NetMsg{Type: OpBatch, Sender: 100, Batch: []*NetMsg{innerBatch}}
	if _, err := Decode(outer.Encode()); err == nil {
		t.Fatal("nested batch frame accepted by decode")
	}
}

func TestBatchEncodedLenExact(t *testing.T) {
	one := NewBatch(1, []*NetMsg{{Type: OpAck, ID: 1}})
	if got := len(one.Encode()); got != one.EncodedLen() {
		t.Fatalf("singleton batch: EncodedLen = %d, actual %d", one.EncodedLen(), got)
	}
	empty := NewBatch(1, nil)
	if got := len(empty.Encode()); got != empty.EncodedLen() {
		t.Fatalf("empty batch: EncodedLen = %d, actual %d", empty.EncodedLen(), got)
	}
	if back, err := Decode(empty.Encode()); err != nil || len(back.Batch) != 0 {
		t.Fatalf("empty batch round trip: %v %+v", err, back)
	}
}

// groupBatch builds a batch of calls whose servers are groups, in order.
func groupBatch(groups ...Group) *NetMsg {
	subs := make([]*NetMsg, len(groups))
	for i, g := range groups {
		subs[i] = &NetMsg{Type: OpCall, ID: CallID(i + 1), Client: 100, Op: 3,
			Args: []byte("args"), Server: g, Sender: 100, Inc: 1}
	}
	return NewBatch(100, subs)
}

// subFrames splits an encoded batch frame into its sub-frames' bytes,
// walking the wire layout independently of the decoder.
func subFrames(t testing.TB, frame []byte) [][]byte {
	t.Helper()
	off := fixedHeaderLen + 4*int(binary.BigEndian.Uint16(frame[fixedHeaderLen-8:]))
	count := int(binary.BigEndian.Uint16(frame[off:]))
	p := off + 2
	subs := make([][]byte, count)
	for i := range subs {
		sl := int(binary.BigEndian.Uint32(frame[p:]))
		subs[i] = frame[p+4 : p+4+sl]
		p += 4 + sl
	}
	return subs
}

// TestDecodeSharedBatchAllocs is the allocation guard of the batch decode:
// a 16-call batch to one group costs the frame, the sub-message slab, the
// sub-message pointers and one group, however many sub-messages it holds.
func TestDecodeSharedBatchAllocs(t *testing.T) {
	groups := make([]Group, 16)
	for i := range groups {
		groups[i] = NewGroup(1, 2, 3)
	}
	wire := groupBatch(groups...).Encode()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeShared(wire); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("DecodeShared of a 16-sub batch allocated %.1f times, want at most 4", allocs)
	}
}

// TestDecodeGroupReuseOnlyOnEqual: a shared decode reuses a group only
// when the wire names exactly its members. Whatever the previous group —
// none, another length, the same length with another member — every
// sub-message's Server equals what decoding that sub-frame alone yields.
func TestDecodeGroupReuseOnlyOnEqual(t *testing.T) {
	a, b := NewGroup(1, 2, 3), NewGroup(1, 2, 4)
	wire := groupBatch(a, b, a, a, nil, a).Encode()
	frames := subFrames(t, wire)
	for _, prev := range []Group{nil, NewGroup(1, 2), NewGroup(1, 2, 5), a.Clone()} {
		m, last, err := DecodeSharedReuse(wire, prev)
		if err != nil {
			t.Fatal(err)
		}
		for i, sub := range m.Batch {
			alone, err := Decode(frames[i])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sub.Server, alone.Server) {
				t.Fatalf("prev %v: sub %d Server = %v, want %v", prev, i, sub.Server, alone.Server)
			}
		}
		// Equal neighbours share one slice, also across a sub-message that
		// names no group; a different group in between ends the sharing.
		if &m.Batch[2].Server[0] != &m.Batch[3].Server[0] || &m.Batch[3].Server[0] != &m.Batch[5].Server[0] {
			t.Fatalf("prev %v: equal consecutive groups decoded into separate slices", prev)
		}
		if &m.Batch[0].Server[0] == &m.Batch[2].Server[0] {
			t.Fatalf("prev %v: group reused across a different one", prev)
		}
		if shared := len(prev) > 0 && &m.Batch[0].Server[0] == &prev[0]; shared != prev.Equal(a) {
			t.Fatalf("prev %v: first sub shares prev = %v", prev, shared)
		}
		if &last[0] != &m.Batch[5].Server[0] {
			t.Fatalf("prev %v: returned group is not the frame's last", prev)
		}
	}

	// A frame naming no group hands prev back untouched.
	if _, last, err := DecodeSharedReuse(groupBatch(nil).Encode(), a); err != nil || &last[0] != &a[0] {
		t.Fatalf("group-free frame: last = %v, err = %v", last, err)
	}

	// The copying decode shares nothing: its messages start mutable.
	m, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if &m.Batch[2].Server[0] == &m.Batch[3].Server[0] {
		t.Fatal("Decode shared a group between mutable sub-messages")
	}
}

// TestBatchCorruptCountAllocBound: a sub-frame count the payload cannot
// hold is rejected before the sub-message slab is sized from it, so a
// corrupt count costs about what the frame's own bytes do.
func TestBatchCorruptCountAllocBound(t *testing.T) {
	good := sampleBatch().Encode()
	for _, count := range []uint16{4, 0x100, 0xffff} {
		bad := append([]byte(nil), good...)
		binary.BigEndian.PutUint16(bad[fixedHeaderLen:], count)
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := DecodeShared(bad); err == nil {
				t.Fatalf("count %d accepted", count)
			}
		}
		runtime.ReadMemStats(&after)
		// The frame's own NetMsg and the error text; one slab entry is
		// already 168 bytes.
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > uint64(len(bad))+512 {
			t.Fatalf("count %d: rejected decode allocated %d bytes from %d input bytes", count, per, len(bad))
		}
	}
}
