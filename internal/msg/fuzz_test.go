package msg

import (
	"reflect"
	"testing"
)

// goldenFrames are encoded frames covering the wire format's variable
// parts: bare header, args, group, vector clock, and a batch envelope.
// They seed every decode fuzz target now that frames arrive from real
// sockets (internal/nettcp), not just the simulator's round-trip.
func goldenFrames() [][]byte {
	plain := sampleMsg()
	withVC := sampleMsg()
	withVC.VC = VClock{1: 2, 3: 4}
	withGroup := sampleMsg()
	withGroup.Server = NewGroup(1, 2, 3)
	batch := NewBatch(7, []*NetMsg{sampleMsg(), sampleMsg()})
	return [][]byte{
		(&NetMsg{Type: OpHeartbeat}).Encode(),
		plain.Encode(),
		withVC.Encode(),
		withGroup.Encode(),
		batch.Encode(),
	}
}

// FuzzDecode ensures arbitrary bytes never panic the wire decoder, and
// that anything it accepts re-encodes to the identical byte string
// (decode∘encode is the identity on valid messages).
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(sampleMsg().Encode())
	withVC := sampleMsg()
	withVC.VC = VClock{1: 2, 3: 4}
	f.Add(withVC.Encode())
	f.Add((&NetMsg{Type: OpHeartbeat}).Encode())

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		re := m.Encode()
		if len(re) != len(data) {
			t.Fatalf("re-encode length %d != input %d", len(re), len(data))
		}
		m2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("decode/encode not idempotent:\n %+v\n %+v", m, m2)
		}
	})
}

// FuzzWireDecode exercises DecodeShared — the path every socket frame
// takes (internal/nettcp) and the simulator's EncodeOnWire path. Contract
// under fuzzing: truncated, corrupt, or oversized-length inputs error,
// never panic; an accepted message is frozen, remembers its exact wire
// frame for zero-re-encode relaying, and its variable-length fields are
// bounded by the bytes that actually arrived (no length prefix may drive
// allocation past the input).
func FuzzWireDecode(f *testing.F) {
	for _, frame := range goldenFrames() {
		f.Add(frame)
		if len(frame) > 3 {
			f.Add(frame[:len(frame)-3]) // truncated
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeShared(data)
		if err != nil {
			return
		}
		if !m.Frozen() {
			t.Fatal("DecodeShared returned an unfrozen message")
		}
		if w := m.Wire(); len(w) != len(data) {
			t.Fatalf("Wire() remembers %d bytes, input was %d", len(w), len(data))
		}
		if 4*len(m.Server) > len(data) || 12*len(m.VC) > len(data) || len(m.Args) > len(data) {
			t.Fatalf("fields exceed input: %d group, %d vc, %d args from %d bytes",
				len(m.Server), len(m.VC), len(m.Args), len(data))
		}
		if re := m.Encode(); len(re) != len(data) {
			t.Fatalf("re-encode length %d != input %d", len(re), len(data))
		}
	})
}

// FuzzBatchDecode targets the OpBatch envelope: the uint16 sub-frame count
// and per-sub uint32 length prefixes (which never nest). Corrupt counts
// and lengths must error without panicking or allocating past the
// payload; accepted batches hold only frozen, non-batch sub-messages, each
// equal to what decoding its sub-frame alone yields (the shared decode
// reuses server groups across sub-messages, and must reuse only equal
// ones).
func FuzzBatchDecode(f *testing.F) {
	batch := NewBatch(7, []*NetMsg{sampleMsg(), sampleMsg()})
	golden := batch.Encode()
	f.Add(golden)
	f.Add(golden[:len(golden)-2]) // truncated sub-frame
	empty := NewBatch(7, nil).Encode()
	f.Add(empty)
	// Oversized count: claim 0xffff subs in a payload holding two.
	corrupt := append([]byte(nil), golden...)
	corrupt[fixedHeaderLen] = 0xff
	corrupt[fixedHeaderLen+1] = 0xff
	f.Add(corrupt)
	// Groups that repeat, change, vanish and come back.
	f.Add(groupBatch(NewGroup(1, 2, 3), NewGroup(1, 2, 4), nil, NewGroup(1, 2, 4), NewGroup(1, 2)).Encode())

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeShared(data)
		if err != nil || m.Type != OpBatch {
			return
		}
		// Each sub-frame costs at least its length prefix plus the fixed
		// header, so an accepted batch — its sub-message pointers and the
		// slab they point into, sized together — is bounded by the input.
		if cap(m.Batch)*minSubFrameLen > len(data) {
			t.Fatalf("room for %d sub-frames from %d input bytes", cap(m.Batch), len(data))
		}
		frames := subFrames(t, data)
		if len(frames) != len(m.Batch) {
			t.Fatalf("decoded %d sub-frames, the wire holds %d", len(m.Batch), len(frames))
		}
		for i, sub := range m.Batch {
			if sub.Type == OpBatch {
				t.Fatalf("sub-frame %d is a nested batch", i)
			}
			if !sub.Frozen() {
				t.Fatalf("sub-frame %d not frozen", i)
			}
			alone, err := Decode(frames[i])
			if err != nil {
				t.Fatalf("sub-frame %d: accepted in the batch, rejected alone: %v", i, err)
			}
			got := *sub
			got.frozen, got.wire = 0, nil
			if !reflect.DeepEqual(&got, alone) {
				t.Fatalf("sub-frame %d differs from its lone decode:\n %+v\n %+v", i, &got, alone)
			}
		}
		if re := m.Encode(); len(re) != len(data) {
			t.Fatalf("re-encode length %d != input %d", len(re), len(data))
		}
	})
}
