package core

import (
	"sync"
	"sync/atomic"

	"mrpc/internal/msg"
)

// This file holds the two halves of the cumulative acknowledgement
// (deviation D20). A client keeps a low-water mark W — the lowest of its
// call ids still held by something on its side — and stamps it into the
// AckID field of every CALL it sends. A server keeps, per (client,
// incarnation), the highest W seen as a floor: every call below the floor is
// settled at the client (its record collected, its transmission state
// retired), so the dedup state kept for it can shrink to one bit, and a copy
// of it that still arrives is a stale duplicate. Both sides index dense
// per-incarnation sequence numbers (D9) on a sliding window, so neither
// allocates per call.

// callSeq and callInc split a call id into the dense sequence number and the
// incarnation carried in its upper bits (D9).
func callSeq(id msg.CallID) uint32          { return uint32(id) }
func callInc(id msg.CallID) msg.Incarnation { return msg.Incarnation(int64(id) >> 32) }

// seqWindow is a sliding window over one incarnation's sequence numbers: it
// holds a T for every sequence number from base up to base+len(ring) and
// nothing below base. The ring doubles when a slot beyond its reach is
// asked for and is reused as base slides, so a window whose span stays
// bounded allocates nothing once it has grown to fit.
type seqWindow[T any] struct {
	base uint32 // lowest sequence number held
	head int    // ring index of base
	ring []T    // length zero or a power of two
}

// slot returns the slot for seq, growing the ring to reach it, or nil when
// seq lies below the window.
func (w *seqWindow[T]) slot(seq uint32) *T {
	if seq < w.base {
		return nil
	}
	off := int(seq - w.base)
	if off >= len(w.ring) {
		w.grow(off + 1)
	}
	return &w.ring[(w.head+off)&(len(w.ring)-1)]
}

// peek returns the slot for seq if the ring already reaches it, else nil.
func (w *seqWindow[T]) peek(seq uint32) *T {
	if seq < w.base || int(seq-w.base) >= len(w.ring) {
		return nil
	}
	return &w.ring[(w.head+int(seq-w.base))&(len(w.ring)-1)]
}

func (w *seqWindow[T]) grow(n int) {
	size := max(2*len(w.ring), 8)
	for size < n {
		size *= 2
	}
	ring := make([]T, size)
	k := copy(ring, w.ring[w.head:])
	copy(ring[k:], w.ring[:w.head])
	w.ring, w.head = ring, 0
}

// advance slides base up to floor, zeroing every slot it drops. A floor at
// or below base is a no-op: a window never moves back.
func (w *seqWindow[T]) advance(floor uint32) {
	if floor <= w.base {
		return
	}
	if n := floor - w.base; uint64(n) >= uint64(len(w.ring)) {
		clear(w.ring)
		w.head = 0
	} else {
		mask := len(w.ring) - 1
		var zero T
		for i := 0; i < int(n); i++ {
			w.ring[(w.head+i)&mask] = zero
		}
		w.head = (w.head + int(n)) & mask
	}
	w.base = floor
}

// windowKey names one client incarnation's window at a server.
type windowKey struct {
	client msg.ProcID
	inc    msg.Incarnation
}

// windowSlot is the per-call state a server window keeps: admitted reports
// whether the call was let in (seen) at this server.
type windowSlot interface{ admitted() bool }

// graceSpan is how many sequence numbers below its floor a server window
// still tells apart, one bit each: admitted here or not. A mark says the
// client has settled a call, not that every copy has landed; without
// Reliable Communication (whose entries hold the mark until every member has
// the call) the first copy of a call can still be on its way to a slow
// member when the floor passes it. Such a late first copy is admitted; a
// duplicate of an admitted call is dropped.
const graceSpan = 4096

// floorWindow is a server's window for one client incarnation: the calls at
// or above the floor in full, and the graceSpan calls just below it as bits.
type floorWindow[T windowSlot] struct {
	seqWindow[T]
	past [graceSpan / 64]uint64 // bit s%graceSpan: call s was admitted
}

func (w *floorWindow[T]) pastBit(seq uint32) (word *uint64, bit uint64) {
	i := seq % graceSpan
	return &w.past[i/64], 1 << (i % 64)
}

// raise moves the floor up, folding the calls it passes into the grace bits.
func (w *floorWindow[T]) raise(floor uint32) {
	if floor <= w.base {
		return
	}
	lo := w.base
	if floor-lo > graceSpan {
		lo = floor - graceSpan
	}
	for seq := lo; seq < floor; seq++ {
		word, bit := w.pastBit(seq)
		if s := w.peek(seq); s != nil && (*s).admitted() {
			*word |= bit
		} else {
			*word &^= bit
		}
	}
	w.advance(floor)
}

// inGrace reports whether seq lies in the grace span below the floor.
func (w *floorWindow[T]) inGrace(seq uint32) bool {
	return seq < w.base && w.base-seq <= graceSpan
}

// settled reports whether a call below the floor must be dropped: it is
// older than the grace span, or it was admitted here already.
func (w *floorWindow[T]) settled(seq uint32) bool {
	if seq >= w.base {
		return false
	}
	if !w.inGrace(seq) {
		return true
	}
	word, bit := w.pastBit(seq)
	return *word&bit != 0
}

// admitLate records the admission of a late first copy below the floor; the
// caller has checked that the call is not settled.
func (w *floorWindow[T]) admitLate(seq uint32) {
	word, bit := w.pastBit(seq)
	*word |= bit
}

// forgetLate undoes admitLate (a later handler cancelled the admission).
func (w *floorWindow[T]) forgetLate(seq uint32) {
	if w.inGrace(seq) {
		word, bit := w.pastBit(seq)
		*word &^= bit
	}
}

// clientWindows is a server's per-(client, incarnation) windows. Each
// incarnation keeps its own floor, so a recovered client's fresh calls are
// never judged by its previous life's mark (and the previous life's
// stragglers are judged by its own). The caller synchronizes.
type clientWindows[T windowSlot] map[windowKey]*floorWindow[T]

// of returns the window for call id from client, creating it on first use.
func (cw clientWindows[T]) of(client msg.ProcID, id msg.CallID) *floorWindow[T] {
	k := windowKey{client: client, inc: callInc(id)}
	w := cw[k]
	if w == nil {
		w = new(floorWindow[T])
		cw[k] = w
	}
	return w
}

// observe raises the floor of the mark's incarnation to the mark carried by
// a call from client (zero: the sender stamps none).
func (cw clientWindows[T]) observe(client msg.ProcID, mark msg.CallID) {
	if mark != 0 {
		cw.of(client, mark).raise(callSeq(mark))
	}
}

// maxWindowSpan caps how far a server window reaches above its floor. A call
// further ahead raises the floor behind it rather than growing the ring
// without bound, so a client whose mark lags by more than this many calls (or
// a forged call id) costs a server at most one window of this span.
const maxWindowSpan = 1 << 18

// slot returns the slot for call id from client, or nil when the call is
// below its incarnation's floor.
func (cw clientWindows[T]) slot(client msg.ProcID, id msg.CallID) *T {
	w := cw.of(client, id)
	seq := callSeq(id)
	if seq >= w.base && seq-w.base >= maxWindowSpan {
		w.raise(seq - maxWindowSpan + 1)
	}
	return w.slot(seq)
}

// lowWater is a client's low-water mark W: the lowest of its call ids still
// held. A call id is held from issue until its client record is taken, and
// for as long again as Reliable Communication keeps transmission state for
// it; holds are counted per id on a window indexed by sequence number, so
// W is the window's base and holding or releasing allocates nothing once
// the window spans the calls in flight. W only ever grows.
type lowWater struct {
	mu    sync.Mutex
	next  uint32          // next sequence number to issue
	inc   msg.Incarnation // incarnation of the last id issued
	holds seqWindow[idHold]
	mark  atomic.Int64 // W, published for lock-free stamping
}

// idHold counts the holders of one issued id.
type idHold struct {
	inc msg.Incarnation
	n   uint8
}

func (lw *lowWater) init() { lw.next, lw.holds.base = 1, 1 }

// issue allocates the next call id under incarnation inc, held once (by the
// client record about to be inserted). Issuing under the same lock that
// advances W keeps W from passing an id that is issued but not yet held.
func (lw *lowWater) issue(inc msg.Incarnation) msg.CallID {
	lw.mu.Lock()
	seq := lw.next
	lw.next++
	lw.inc = inc
	*lw.holds.slot(seq) = idHold{inc: inc, n: 1}
	lw.publish()
	lw.mu.Unlock()
	return msg.CallID(int64(inc)<<32 | int64(seq))
}

// hold adds a holder to an issued id still held by someone else.
func (lw *lowWater) hold(id msg.CallID) {
	lw.mu.Lock()
	if h := lw.holds.peek(callSeq(id)); h != nil && h.n > 0 {
		h.n++
	}
	lw.mu.Unlock()
}

// release drops one holder of id; when the last holder of the lowest held
// id goes, W moves up to the next id still held (or to the next to issue).
func (lw *lowWater) release(id msg.CallID) {
	lw.mu.Lock()
	seq := callSeq(id)
	if h := lw.holds.peek(seq); h != nil && h.n > 0 {
		h.n--
		if h.n == 0 && seq == lw.holds.base {
			b := seq + 1
			for b < lw.next && lw.holds.peek(b).n == 0 {
				b++
			}
			lw.holds.advance(b)
			lw.publish()
		}
	}
	lw.mu.Unlock()
}

// publish stores W. The caller holds mu.
func (lw *lowWater) publish() {
	b := lw.holds.base
	inc := lw.inc
	if b < lw.next {
		inc = lw.holds.peek(b).inc
	}
	lw.mark.Store(int64(inc)<<32 | int64(b))
}

// load returns W, or zero before the first call is issued.
func (lw *lowWater) load() msg.CallID { return msg.CallID(lw.mark.Load()) }
