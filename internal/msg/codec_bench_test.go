package msg

import (
	"fmt"
	"testing"
)

// benchWireMsg builds a message shaped like a causal-order group call: a
// 3-member group, a mid-size payload, and a vector clock with vcN entries.
// The VC is the codec's only map-shaped field, so it is where per-encode
// allocation pressure hides (the key sort).
func benchWireMsg(vcN int) *NetMsg {
	m := &NetMsg{
		Type: OpCall, ID: 1 << 33, Client: 100, Op: 7,
		Args: make([]byte, 256), Server: NewGroup(1, 2, 3), Sender: 100, Inc: 2,
	}
	if vcN > 0 {
		m.VC = make(VClock, vcN)
		for i := 0; i < vcN; i++ {
			m.VC[ProcID(i+1)] = int64(i * 13)
		}
	}
	return m
}

// BenchmarkWireCodecEncode measures AppendEncode into a reused buffer as
// the vector clock grows (vc0 is the non-causal configurations' shape).
func BenchmarkWireCodecEncode(b *testing.B) {
	for _, vcN := range []int{0, 4, 16} {
		b.Run(fmt.Sprintf("vc%d", vcN), func(b *testing.B) {
			m := benchWireMsg(vcN)
			buf := make([]byte, 0, m.EncodedLen())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = m.AppendEncode(buf[:0])
			}
		})
	}
}

// BenchmarkWireCodecDecode measures the copying decode used off the shared
// wire path.
func BenchmarkWireCodecDecode(b *testing.B) {
	for _, vcN := range []int{0, 4, 16} {
		b.Run(fmt.Sprintf("vc%d", vcN), func(b *testing.B) {
			wire := benchWireMsg(vcN).Encode()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Decode(wire); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWireCodecDecodeBatch measures the shared decode every socket
// frame takes, on the shape a pipelined burst puts on the wire: one batch
// of 16 calls to the same 3-member group.
func BenchmarkWireCodecDecodeBatch(b *testing.B) {
	subs := make([]*NetMsg, 16)
	for i := range subs {
		subs[i] = benchWireMsg(0)
	}
	wire := NewBatch(100, subs).Encode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeShared(wire); err != nil {
			b.Fatal(err)
		}
	}
}
