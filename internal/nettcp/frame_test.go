package nettcp

import (
	"bufio"
	"bytes"
	"io"
	"testing"
)

// TestWriteFrameAllocatesNothing: writing a frame costs no allocation,
// including a frame larger than the writer's buffer (bufio hands such a
// payload straight to the underlying writer) and a prefix that finds the
// buffer nearly full.
func TestWriteFrameAllocatesNothing(t *testing.T) {
	const size = 64
	w := bufio.NewWriterSize(io.Discard, size)
	big := make([]byte, 4*size)
	small := make([]byte, size-6) // leaves 2 bytes: the next prefix flushes first
	allocs := testing.AllocsPerRun(100, func() {
		for _, wire := range [][]byte{big, small, big} {
			if err := writeFrame(w, wire); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("writeFrame allocated %.1f times per run, want 0", allocs)
	}
}

// TestWriteFrameRoundTrip: frames written around a nearly full buffer read
// back intact and in order.
func TestWriteFrameRoundTrip(t *testing.T) {
	var out bytes.Buffer
	w := bufio.NewWriterSize(&out, 16)
	frames := [][]byte{bytes.Repeat([]byte{1}, 10), bytes.Repeat([]byte{2}, 40), {3}, {}}
	for _, f := range frames {
		if err := writeFrame(w, f); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, want := range frames {
		got, err := readFrame(&out, defaultMaxFrame)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %v, want %v", i, got, want)
		}
	}
}
