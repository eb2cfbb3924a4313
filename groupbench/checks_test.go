package main

import (
	"math"
	"testing"
	"time"
)

// Each check must pass on a right output and fail on a planted wrong one.

func TestCheckPutVersion(t *testing.T) {
	if err := checkPutVersion(7, 3, 3); err != nil {
		t.Fatalf("right version rejected: %v", err)
	}
	if checkPutVersion(7, 3, 2) == nil {
		t.Fatal("third put returning version 2 passed")
	}
}

func TestCheckGetVersion(t *testing.T) {
	if err := checkGetVersion(1, 4, 6, 5); err != nil {
		t.Fatalf("version inside the window rejected: %v", err)
	}
	for _, got := range []uint64{3, 7} {
		if checkGetVersion(1, 4, 6, got) == nil {
			t.Fatalf("version %d outside [4, 6] passed", got)
		}
	}
}

func TestCheckGetValue(t *testing.T) {
	v := kvValue(9, 2, 5)
	if err := checkGetValue(9, 2, 5, v[:]); err != nil {
		t.Fatalf("stored value rejected: %v", err)
	}
	other := kvValue(9, 2, 4)
	if checkGetValue(9, 2, 5, other[:]) == nil {
		t.Fatal("the value of version 4 passed as version 5")
	}
	if zero := kvValue(9, 2, 0); checkGetValue(9, 2, 0, zero[:]) != nil {
		t.Fatal("an unwritten key's zero value rejected")
	}
}

func TestCheckReplicaCounts(t *testing.T) {
	issued := []uint64{2, 0, 5}
	if err := checkReplicaCounts(issued, [][]uint64{{2, 0, 5}, {2, 0, 5}}); err != nil {
		t.Fatalf("matching replicas rejected: %v", err)
	}
	if checkReplicaCounts(issued, [][]uint64{{2, 0, 5}, {2, 0, 4}}) == nil {
		t.Fatal("a replica missing a put passed")
	}
	if checkReplicaCounts(issued, [][]uint64{{2, 0}}) == nil {
		t.Fatal("a replica with the wrong key space passed")
	}
}

func TestCheckReplicaOrder(t *testing.T) {
	a := orderStep(orderStep(orderSeed, 1, 1), 2, 1)
	b := orderStep(orderStep(orderSeed, 2, 1), 1, 1)
	if err := checkReplicaOrder([]uint64{a, a, a}); err != nil {
		t.Fatalf("equal orders rejected: %v", err)
	}
	if checkReplicaOrder([]uint64{a, b, a}) == nil {
		t.Fatal("puts applied in another order passed")
	}
}

func TestCheckDigest(t *testing.T) {
	p := []byte("payload")
	if err := checkDigest(p, digest(p)); err != nil {
		t.Fatalf("right digest rejected: %v", err)
	}
	if checkDigest(p, digest(p)^1) == nil {
		t.Fatal("wrong digest passed")
	}
}

func TestCheckExactlyOnce(t *testing.T) {
	issued := &callSet{}
	for seq := uint64(1); seq <= 3; seq++ {
		issued.add(1, seq)
	}
	member := func(seqs ...uint64) *callSet {
		s := &callSet{}
		for _, q := range seqs {
			s.add(1, q)
		}
		return s
	}
	if err := checkExactlyOnce(issued, []*callSet{member(3, 1, 2)}); err != nil {
		t.Fatalf("each call once rejected: %v", err)
	}
	for name, m := range map[string]*callSet{
		"missing":      member(1, 2),
		"duplicated":   member(1, 2, 3, 3),
		"substituted":  member(1, 2, 2),
		"foreign call": member(1, 2, 4),
	} {
		if checkExactlyOnce(issued, []*callSet{member(1, 2, 3), m}) == nil {
			t.Errorf("%s execution passed", name)
		}
	}
}

func TestCheckDropped(t *testing.T) {
	if err := checkDropped(3); err != nil {
		t.Fatalf("drops rejected: %v", err)
	}
	if checkDropped(0) == nil {
		t.Fatal("a lossy run without drops passed")
	}
}

func TestVerifier(t *testing.T) {
	var v verifier
	v.add(nil)
	if v.err() != nil {
		t.Fatal("nil error recorded")
	}
	v.add(checkPutVersion(1, 1, 2))
	if v.err() == nil {
		t.Fatal("failure not recorded")
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for i := 1; i <= 10000; i++ {
		h.add(time.Duration(i) * time.Microsecond)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 10000e3
		if got := h.quantile(q); math.Abs(got-want)/want > 0.005 {
			t.Errorf("q%.2f = %.0fns, want %.0fns within 0.5%%", q, got, want)
		}
	}
}

// TestTracerSelfTime nests spans on one goroutine and checks that each
// span's self time excludes its children.
func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	var now int64
	tr.clock = func() int64 { return now }
	span := func(name int32, start, end, clock int64) {
		now = end
		tr.finish(name, "", start, end, noKey, clock)
	}
	leaf := tr.nameID("Leaf.h", false)
	// A handler [5,8) ends before the call starts: not its child.
	span(leaf, 5, 8, 0)
	// The call [10,110) holds a send [20,70), which holds a handler
	// [30,40) whose bracketing clock read cost 2.
	span(leaf, 30, 40, 2)
	span(idSend, 20, 70, 0)
	span(idCall, 10, 110, 0)
	by, spans := tr.byName()
	if spans != 4 {
		t.Fatalf("%d spans counted, want 4", spans)
	}
	for name, want := range map[string]int64{"Leaf.h": 3 + 8, "transport.send": 38, "client.call": 50} {
		if got := by[name].selfNs; got != want {
			t.Errorf("%s self time %dns, want %d", name, got, want)
		}
	}
}

func TestQuietSlots(t *testing.T) {
	slots := func(steal ...float64) []slotFigures {
		s := make([]slotFigures, len(steal))
		for i, x := range steal {
			s[i].steal = x
		}
		return s
	}
	// The least-stolen third is two slots; every slot as quiet as they
	// are counts.
	if got := quietSlots(slots(0.1, 0, 0.05, 0, 0.2, 0)); len(got) != 3 {
		t.Errorf("%d quiet slots, want the 3 without steal", len(got))
	}
	if got := quietSlots(slots(0.3, 0.02, 0.01, 0.2, 0.04, 0.05)); len(got) != 2 ||
		got[0].steal != 0.02 || got[1].steal != 0.01 {
		t.Errorf("%d quiet slots, want those with 2%% and 1%% steal", len(got))
	}
	if got := quietSlots(slots(0, 0, 0, 0)); len(got) != 4 {
		t.Errorf("%d quiet slots on a machine without steal, want all 4", len(got))
	}
}
