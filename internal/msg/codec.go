package msg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Wire format (big-endian):
//
//	byte    version (1)
//	byte    type
//	byte    relay (dissemination-tree fanout; 0 = flat)
//	int64   id
//	int32   client
//	uint32  op
//	int32   sender
//	int32   inc
//	int64   ackid
//	int64   order
//	uint16  len(server) followed by int32 members
//	uint32  len(args)   followed by raw bytes
//	uint16  len(vc)     followed by (int32 proc, uint64 counter) pairs
//
// The codec exists so the simulated network can optionally carry encoded
// bytes (exercising the same marshalling work a real transport would), and
// so the stub layer has a stable contract to test against.

const wireVersion = 1

// Encoding errors.
var (
	ErrShortMessage = errors.New("msg: short message")
	ErrBadVersion   = errors.New("msg: unknown wire version")
)

const fixedHeaderLen = 1 + 1 + 1 + 8 + 4 + 4 + 4 + 4 + 8 + 8 + 2 + 4 + 2

// An OpBatch frame reuses the v1 layout unchanged: its payload occupies the
// args slot (the uint32 length counts the payload bytes), and consists of a
// uint16 sub-frame count followed by uint32-length-prefixed standard
// encodings. Batch frames carry no Args of their own and never nest.

// batchPayloadLen returns the size of the batch payload in the args slot.
func (m *NetMsg) batchPayloadLen() int {
	n := 2
	for _, s := range m.Batch {
		n += 4 + s.EncodedLen()
	}
	return n
}

// EncodedLen returns the exact encoded size of m.
func (m *NetMsg) EncodedLen() int {
	args := len(m.Args)
	if m.Type == OpBatch {
		args = m.batchPayloadLen()
	}
	return fixedHeaderLen + 4*len(m.Server) + args + 12*len(m.VC)
}

// Encode serializes m into a fresh buffer.
func (m *NetMsg) Encode() []byte {
	buf := make([]byte, 0, m.EncodedLen())
	return m.AppendEncode(buf)
}

// AppendEncode serializes m, appending to buf and returning the result.
func (m *NetMsg) AppendEncode(buf []byte) []byte {
	buf = append(buf, wireVersion, byte(m.Type), m.Relay)
	buf = binary.BigEndian.AppendUint64(buf, uint64(m.ID))
	buf = binary.BigEndian.AppendUint32(buf, uint32(m.Client))
	buf = binary.BigEndian.AppendUint32(buf, uint32(m.Op))
	buf = binary.BigEndian.AppendUint32(buf, uint32(m.Sender))
	buf = binary.BigEndian.AppendUint32(buf, uint32(m.Inc))
	buf = binary.BigEndian.AppendUint64(buf, uint64(m.AckID))
	buf = binary.BigEndian.AppendUint64(buf, uint64(m.Order))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Server)))
	if m.Type == OpBatch {
		buf = binary.BigEndian.AppendUint32(buf, uint32(m.batchPayloadLen()))
	} else {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Args)))
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.VC)))
	for _, p := range m.Server {
		buf = binary.BigEndian.AppendUint32(buf, uint32(p))
	}
	if m.Type == OpBatch {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Batch)))
		for _, s := range m.Batch {
			buf = binary.BigEndian.AppendUint32(buf, uint32(s.EncodedLen()))
			buf = s.AppendEncode(buf)
		}
	} else {
		buf = append(buf, m.Args...)
	}
	if len(m.VC) > 0 {
		// The deterministic key order needs a sorted scratch slice; keep it
		// on the stack for realistic clock sizes so the hot encode path
		// stays allocation-free (slices.Sort, unlike sort.Slice, does not
		// allocate its comparator).
		var kbuf [32]ProcID
		procs := kbuf[:0]
		if len(m.VC) > len(kbuf) {
			procs = make([]ProcID, 0, len(m.VC))
		}
		for p := range m.VC {
			procs = append(procs, p)
		}
		slices.Sort(procs)
		for _, p := range procs {
			buf = binary.BigEndian.AppendUint32(buf, uint32(p))
			buf = binary.BigEndian.AppendUint64(buf, uint64(m.VC[p]))
		}
	}
	return buf
}

// Decode parses a message previously produced by Encode. Every
// variable-length field is copied out of buf, so the caller may recycle it.
func Decode(buf []byte) (*NetMsg, error) {
	m := new(NetMsg)
	if _, err := decodeInto(m, buf, false, nil); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeShared parses like Decode but borrows Args directly from buf
// (capacity-clamped) instead of copying, and returns the message already
// frozen: the caller is declaring that buf is immutable for as long as any
// borrower may retain the arguments. The simulated network uses it on the
// encode-once multicast path, where every delivery of one send shares a
// single wire buffer (deviation D13).
func DecodeShared(buf []byte) (*NetMsg, error) {
	m, _, err := DecodeSharedReuse(buf, nil)
	return m, err
}

// DecodeSharedReuse decodes like DecodeShared and also shares server
// groups: a decoded Server that names the same members as prev, or as the
// sub-message before it in a batch, is that same slice rather than a fresh
// one. It returns the last group the frame named (prev when it named none),
// which a receiver passes as prev for its next frame. Sharing is safe
// because a decoded message and everything it reaches are frozen (D13):
// prev must itself come from a shared decode, and nobody may write into it.
func DecodeSharedReuse(buf []byte, prev Group) (*NetMsg, Group, error) {
	m := new(NetMsg)
	last, err := decodeInto(m, buf, true, prev)
	if err != nil {
		return nil, prev, err
	}
	return m, last, nil
}

// minSubFrameLen is the least a batch sub-frame can occupy in the payload:
// its length prefix and a fixed header.
const minSubFrameLen = 4 + fixedHeaderLen

// decodeInto parses buf into the zero message m and returns the last
// server group it decoded, or prev when buf names none; on error m and the
// group are garbage. With shareArgs it
// borrows Args from buf, remembers the frame for relaying, reuses prev (or
// an earlier sibling's group) for an equal Server, and freezes m; without
// it, every variable-length field is a private copy and prev is ignored.
//
// A batch allocates per frame, not per message: its sub-messages decode
// into one []NetMsg slab, so a retained sub-message keeps its siblings'
// headers alive exactly as its Args keep the frame's bytes alive.
func decodeInto(m *NetMsg, buf []byte, shareArgs bool, prev Group) (Group, error) {
	if len(buf) < fixedHeaderLen {
		return nil, ErrShortMessage
	}
	if buf[0] != wireVersion {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, buf[0])
	}
	m.Type, m.Relay = NetOp(buf[1]), buf[2]
	if m.Type < OpCall || m.Type > OpRelayAck {
		return nil, fmt.Errorf("msg: invalid message type %d", buf[1])
	}
	if shareArgs {
		// Remember the exact frame for zero-re-encode relaying (D17): the
		// caller declared buf immutable, and the decode below proves buf is
		// exactly this message's encoding.
		m.wire = buf[:len(buf):len(buf)]
	}
	off := 3
	m.ID = CallID(binary.BigEndian.Uint64(buf[off:]))
	off += 8
	m.Client = ProcID(binary.BigEndian.Uint32(buf[off:]))
	off += 4
	m.Op = OpID(binary.BigEndian.Uint32(buf[off:]))
	off += 4
	m.Sender = ProcID(binary.BigEndian.Uint32(buf[off:]))
	off += 4
	m.Inc = Incarnation(binary.BigEndian.Uint32(buf[off:]))
	off += 4
	m.AckID = CallID(binary.BigEndian.Uint64(buf[off:]))
	off += 8
	m.Order = int64(binary.BigEndian.Uint64(buf[off:]))
	off += 8
	nGroup := int(binary.BigEndian.Uint16(buf[off:]))
	off += 2
	nArgs := int(binary.BigEndian.Uint32(buf[off:]))
	off += 4
	nVC := int(binary.BigEndian.Uint16(buf[off:]))
	off += 2
	if len(buf) != off+4*nGroup+nArgs+12*nVC {
		return nil, fmt.Errorf("%w: have %d want %d bytes", ErrShortMessage,
			len(buf), off+4*nGroup+nArgs+12*nVC)
	}
	if nGroup > 0 {
		members := buf[off : off+4*nGroup]
		off += 4 * nGroup
		if !shareArgs || !sameMembers(prev, members) {
			prev = make(Group, nGroup)
			for i := range prev {
				prev[i] = ProcID(binary.BigEndian.Uint32(members[4*i:]))
			}
		}
		m.Server = prev
	}
	if m.Type == OpBatch {
		if nArgs < 2 {
			return nil, fmt.Errorf("%w: truncated batch payload", ErrShortMessage)
		}
		payload := buf[off : off+nArgs]
		off += nArgs
		count := int(binary.BigEndian.Uint16(payload))
		p := 2
		// The slab is sized from the count, so a count the payload could
		// not hold is rejected first: a corrupt count must not drive
		// allocation beyond the bytes that actually arrived.
		if count*minSubFrameLen > len(payload)-p {
			return nil, fmt.Errorf("%w: batch of %d sub-frames in %d payload bytes",
				ErrShortMessage, count, len(payload))
		}
		slab := make([]NetMsg, count)
		m.Batch = make([]*NetMsg, count)
		for i := range slab {
			if len(payload)-p < 4 {
				return nil, fmt.Errorf("%w: truncated batch payload", ErrShortMessage)
			}
			sl := int(binary.BigEndian.Uint32(payload[p:]))
			p += 4
			if len(payload)-p < sl {
				return nil, fmt.Errorf("%w: truncated batch sub-frame %d", ErrShortMessage, i)
			}
			// Sub-messages borrow from the shared wire buffer exactly like
			// a top-level shared decode would, and are frozen likewise.
			sub := &slab[i]
			var err error
			if prev, err = decodeInto(sub, payload[p:p+sl:p+sl], shareArgs, prev); err != nil {
				return nil, fmt.Errorf("msg: batch sub-frame %d: %w", i, err)
			}
			p += sl
			if sub.Type == OpBatch {
				return nil, fmt.Errorf("msg: batch sub-frame %d: batch frames do not nest", i)
			}
			m.Batch[i] = sub
		}
		if p != len(payload) {
			return nil, fmt.Errorf("msg: batch payload has %d trailing bytes", len(payload)-p)
		}
	} else if nArgs > 0 {
		if shareArgs {
			m.Args = buf[off : off+nArgs : off+nArgs]
		} else {
			m.Args = append([]byte(nil), buf[off:off+nArgs]...)
		}
		off += nArgs
	}
	if nVC > 0 {
		m.VC = make(VClock, nVC)
		for i := 0; i < nVC; i++ {
			p := ProcID(binary.BigEndian.Uint32(buf[off:]))
			off += 4
			if _, dup := m.VC[p]; dup {
				return nil, fmt.Errorf("msg: duplicate vector-clock entry for process %d", p)
			}
			m.VC[p] = int64(binary.BigEndian.Uint64(buf[off:]))
			off += 8
		}
	}
	if shareArgs {
		m.Freeze()
	}
	return prev, nil
}

// sameMembers reports whether the encoded members name exactly group g.
func sameMembers(g Group, members []byte) bool {
	if 4*len(g) != len(members) {
		return false
	}
	for i, p := range g {
		if ProcID(binary.BigEndian.Uint32(members[4*i:])) != p {
			return false
		}
	}
	return true
}
