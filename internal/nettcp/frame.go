package nettcp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"mrpc/internal/msg"
)

// Wire framing: every message travels as a 4-byte big-endian length prefix
// followed by the standard msg encoding (the same bytes netsim carries
// with EncodeOnWire, so a frame captured on either substrate decodes
// identically). A connection opens with a fixed 9-byte handshake in each
// direction — magic, transport version, ProcID — before any frame flows:
//
//	[4] magic "mRPC"
//	[1] version (1)
//	[4] ProcID (big-endian)
//
// The dialer sends first and verifies the listener's reply names the
// process it meant to reach, catching stale or misconfigured peer maps at
// connect time instead of as silent misdelivery.

const (
	handshakeVersion = 1
	handshakeLen     = 9

	// defaultMaxFrame bounds a frame's declared length. A corrupt or
	// hostile length prefix must never drive allocation: readFrame
	// rejects the prefix before allocating anything.
	defaultMaxFrame = 16 << 20
)

var handshakeMagic = [4]byte{'m', 'R', 'P', 'C'}

// Framing and handshake errors.
var (
	ErrFrameTooLarge = errors.New("nettcp: frame length exceeds limit")
	ErrBadHandshake  = errors.New("nettcp: bad handshake")
)

// appendHandshake appends the 9-byte hello for process id.
func appendHandshake(buf []byte, id msg.ProcID) []byte {
	buf = append(buf, handshakeMagic[:]...)
	buf = append(buf, handshakeVersion)
	return binary.BigEndian.AppendUint32(buf, uint32(id))
}

// readHandshake reads and validates one hello, returning the peer's
// claimed process id.
func readHandshake(r io.Reader) (msg.ProcID, error) {
	var buf [handshakeLen]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadHandshake, err)
	}
	if [4]byte(buf[:4]) != handshakeMagic {
		return 0, fmt.Errorf("%w: bad magic %q", ErrBadHandshake, buf[:4])
	}
	if buf[4] != handshakeVersion {
		return 0, fmt.Errorf("%w: version %d, want %d", ErrBadHandshake, buf[4], handshakeVersion)
	}
	return msg.ProcID(binary.BigEndian.Uint32(buf[5:])), nil
}

// writeFrame writes one length-prefixed frame into the buffered writer.
// The caller decides when to Flush (frames written back-to-back coalesce
// into one syscall, the socket-level analogue of the D16 batch frames).
// The prefix is built in the writer's own buffer: a local array would
// escape to the heap, since Write may hand its argument to the connection.
func writeFrame(w *bufio.Writer, wire []byte) error {
	if w.Available() < 4 {
		if err := w.Flush(); err != nil {
			return err
		}
	}
	hdr := binary.BigEndian.AppendUint32(w.AvailableBuffer(), uint32(len(wire)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(wire)
	return err
}

// readFrame reads one length-prefixed frame into a fresh buffer. The
// buffer is freshly allocated per frame and never recycled, so
// msg.DecodeShared may borrow from it (D13). A length prefix above max is
// rejected before any payload allocation, so a corrupt or hostile prefix
// cannot drive memory use.
func readFrame(r io.Reader, max int) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > max {
		return nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, max)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}
