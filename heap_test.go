package mrpc_test

import (
	"runtime"
	"runtime/metrics"
	"testing"

	"mrpc"
)

// liveHeap returns the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestReplicatedServiceLiveHeapFlat: the live heap of a three-replica
// ReplicatedService group does not grow with the number of calls it has
// served. It is read after n calls and again after 10n; per-call state that
// is never released would show as growth proportional to the 9n calls
// between the two readings. An order table that kept every assignment grew
// the heap by about 100 bytes per call here, 9 MB over the 9n calls.
func TestReplicatedServiceLiveHeapFlat(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("long run; the race detector's shadow memory swamps the reading")
	}
	const n = 10_000
	const bound = 1 << 20 // about 1.2 bytes per call over the 9n calls
	cfg := mrpc.ReplicatedService()
	_, client, group, echo := benchSystem(t, cfg, 3, mrpc.NetParams{})
	payload := []byte("x")
	calls := func(k int) {
		for i := 0; i < k; i++ {
			if _, status, err := client.Call(echo, payload, group); err != nil || status != mrpc.StatusOK {
				t.Fatalf("call %d: %v %v", i, status, err)
			}
		}
	}
	calls(n)
	before := liveHeap()
	calls(9 * n)
	after := liveHeap()
	growth := int64(after) - int64(before)
	t.Logf("live heap %d bytes after %d calls, %d after %d: %+d bytes, %.1f per call",
		before, n, after, 10*n, growth, float64(growth)/(9*n))
	if growth > bound {
		t.Fatalf("live heap grew %d bytes over %d calls; want at most %d", growth, 9*n, bound)
	}
}
