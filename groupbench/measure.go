package main

import (
	"math/bits"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"mrpc/internal/transport"
)

// hist is a log-linear latency histogram in nanoseconds: values below 512
// are exact, larger ones fall in buckets 1/256 of their magnitude wide. It
// is allocated before the measured window and never grows, so recording a
// call allocates nothing and the store does not inflate the heap the
// garbage collector paces against.
type hist struct {
	counts [histBuckets]uint32
	n      int64
}

const (
	histSub     = 9 // bits of resolution
	histHalf    = 1 << (histSub - 1)
	histBuckets = 40*histHalf + 2*histHalf
)

func histIndex(v uint64) int {
	b := bits.Len64(v)
	if b <= histSub {
		return int(v)
	}
	shift := b - histSub
	return shift*histHalf + int(v>>shift)
}

// histBounds returns bucket i's lower bound and width.
func histBounds(i int) (lo, width float64) {
	if i < 2*histHalf {
		return float64(i), 1
	}
	shift := i/histHalf - 1
	top := i - shift*histHalf
	return float64(uint64(top) << shift), float64(uint64(1) << shift)
}

func (h *hist) add(d time.Duration) {
	v := uint64(d)
	if d < 0 {
		v = 0
	}
	i := histIndex(v)
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.counts[i]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds, interpolating by rank
// inside the bucket that holds it.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) > rank {
			lo, w := histBounds(i)
			return lo + (rank-cum+0.5)/float64(c)*w
		}
		cum += float64(c)
	}
	lo, w := histBounds(histBuckets - 1)
	return lo + w
}

// slotLen is the length of the slots a measured window is cut into. The
// end-to-end figures are taken over the slots in which the machine lost the
// least CPU time to other tenants (quietSlots).
const slotLen = time.Second

// recorder is one calling goroutine's tally for the measured window, per
// slot. A call belongs to the slot in which it completed.
type recorder struct {
	start  time.Time // the window's
	slot   time.Duration
	lat    []hist
	calls  []int64 // attempted
	failed []int64
}

func newRecorder(start time.Time, slot time.Duration, slots int) *recorder {
	return &recorder{start: start, slot: slot, lat: make([]hist, slots),
		calls: make([]int64, slots), failed: make([]int64, slots)}
}

// done records one call issued at start; a failed call counts as missing
// every latency limit, so it enters the histogram at the top.
func (r *recorder) done(start time.Time, ok bool) {
	now := time.Now()
	i := 0
	if r.slot > 0 {
		i = min(int(now.Sub(r.start)/r.slot), len(r.lat)-1)
	}
	r.calls[i]++
	if !ok {
		r.failed[i]++
		r.lat[i].add(time.Duration(1<<62 - 1))
		return
	}
	r.lat[i].add(now.Sub(start))
}

// snapshot is the process, transport and machine counters at a slot
// boundary.
type snapshot struct {
	at             time.Time
	cpu            time.Duration
	mallocs, bytes uint64
	sent           int64
	steal, ticks   int64 // machine-wide CPU ticks stolen by the host, and all ticks
}

func takeSnapshot(in *instance) snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	steal, ticks := hostTicks()
	return snapshot{at: time.Now(), cpu: cpuTime(), mallocs: ms.Mallocs,
		bytes: ms.TotalAlloc, sent: in.net.Stats().Sent, steal: steal, ticks: ticks}
}

// hostTicks reads the machine's CPU ticks from /proc/stat: those stolen by
// the hypervisor for other guests, and all of them. Where the file or the
// steal column is missing it returns zeros, and every slot counts as quiet.
func hostTicks() (steal, ticks int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		ticks += v
		if i == 7 {
			steal = v
		}
	}
	return steal, ticks
}

// slotFigures is what one slot saw.
type slotFigures struct {
	seconds float64
	calls   int64 // completed
	lat     hist
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	frames  int64
	steal   float64 // share of the machine's CPU time stolen by the host
}

// quietSlots returns the slots in which the host stole the least CPU time:
// every slot whose steal share is no higher than that of the least-stolen
// third. A slot the host took the CPU from shows a stall no change to the
// program causes, in its rate and its tail above all; on a machine without
// steal every slot qualifies.
func quietSlots(slots []slotFigures) []slotFigures {
	shares := make([]float64, len(slots))
	for i := range slots {
		shares[i] = slots[i].steal
	}
	sort.Float64s(shares)
	limit := shares[(len(shares)+2)/3-1]
	var quiet []slotFigures
	for _, s := range slots {
		if s.steal <= limit {
			quiet = append(quiet, s)
		}
	}
	return quiet
}

// pool sums slots into one.
func pool(slots []slotFigures) slotFigures {
	var p slotFigures
	for i := range slots {
		s := &slots[i]
		p.seconds += s.seconds
		p.calls += s.calls
		p.lat.merge(&s.lat)
		p.cpu += s.cpu
		p.mallocs += s.mallocs
		p.bytes += s.bytes
		p.frames += s.frames
	}
	return p
}

// window is what one measured window saw.
type window struct {
	seconds       float64
	calls, failed int64
	lat           hist
	cpu           time.Duration
	retained      int64
	gcCycles      uint32
	gcPause       time.Duration
	net           transport.Stats // delta over the window
	egress        int64           // client endpoints' egress delta
	slots         []slotFigures
}

// add accumulates o, a window measured on another instance, into w.
func (w *window) add(o window) {
	w.seconds += o.seconds
	w.calls += o.calls
	w.failed += o.failed
	w.lat.merge(&o.lat)
	w.cpu += o.cpu
	w.retained += o.retained
	w.gcCycles += o.gcCycles
	w.gcPause += o.gcPause
	w.net.Sent += o.net.Sent
	w.net.Delivered += o.net.Delivered
	w.net.Dropped += o.net.Dropped
	w.net.Batches += o.net.Batches
	w.egress += o.egress
	w.slots = append(w.slots, o.slots...)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only on a bad argument
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// fence runs the garbage collector to completion twice (the second cycle
// empties the pools' victim caches) and returns the heap statistics.
func fence() runtime.MemStats {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// measure runs inst's callers in a closed loop for d, cut into slots of
// about slotLen. A forced collection fences the window's start; at its end
// the callers finish their current round, the system quiesces and a second
// fence gives the live-heap growth.
func measure(inst *instance, d time.Duration) window {
	n := max(1, int(d/slotLen))
	slot := d / time.Duration(n)
	recs := make([]*recorder, len(inst.callers))
	m0 := fence()
	net0, eg0 := inst.net.Stats(), inst.egress()
	snaps := []snapshot{takeSnapshot(inst)}
	start := snaps[0].at
	for i := range recs {
		recs[i] = newRecorder(start, slot, n)
	}
	if inst.tr != nil {
		inst.tr.on.Store(true)
	}
	deadline := start.Add(d)

	var wg sync.WaitGroup
	for i, round := range inst.callers {
		wg.Add(1)
		go func(round func(*recorder), rec *recorder) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				round(rec)
			}
		}(round, recs[i])
	}
	for i := 1; i < n; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i) * slot)))
		snaps = append(snaps, takeSnapshot(inst))
	}
	wg.Wait()
	if inst.tr != nil {
		inst.tr.on.Store(false)
	}
	snaps = append(snaps, takeSnapshot(inst))
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	net1, eg1 := inst.net.Stats(), inst.egress()
	inst.sys.Quiesce()
	m2 := fence()

	first, last := snaps[0], snaps[len(snaps)-1]
	w := window{
		seconds:  last.at.Sub(first.at).Seconds(),
		cpu:      last.cpu - first.cpu,
		retained: int64(m2.HeapAlloc) - int64(m0.HeapAlloc),
		gcCycles: m1.NumGC - m0.NumGC,
		gcPause:  time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
		net:      statsDelta(net0, net1),
		egress:   eg1 - eg0,
		slots:    make([]slotFigures, n),
	}
	for i := range w.slots {
		a, b := snaps[i], snaps[i+1]
		sf := &w.slots[i]
		sf.seconds = b.at.Sub(a.at).Seconds()
		sf.cpu = b.cpu - a.cpu
		sf.mallocs = b.mallocs - a.mallocs
		sf.bytes = b.bytes - a.bytes
		sf.frames = b.sent - a.sent
		if t := b.ticks - a.ticks; t > 0 {
			sf.steal = float64(b.steal-a.steal) / float64(t)
		}
		for _, r := range recs {
			sf.calls += r.calls[i] - r.failed[i]
			sf.lat.merge(&r.lat[i])
		}
	}
	for _, r := range recs {
		for i := range r.lat {
			w.calls += r.calls[i]
			w.failed += r.failed[i]
			w.lat.merge(&r.lat[i])
		}
	}
	return w
}

// statsDelta is the change from a to b in the counters the metrics use.
func statsDelta(a, b transport.Stats) transport.Stats {
	return transport.Stats{
		Sent:      b.Sent - a.Sent,
		Delivered: b.Delivered - a.Delivered,
		Dropped:   b.Dropped - a.Dropped,
		Batches:   b.Batches - a.Batches,
	}
}

// perCall divides x by the window's completed calls.
func (w *window) perCall(x float64) float64 {
	ok := w.calls - w.failed
	if ok <= 0 {
		return 0
	}
	return x / float64(ok)
}

// endToEnd returns the end-to-end metrics of a window plus set-up time.
// The rate and the latencies, which a stall of the machine moves, are taken
// over the window's quiet slots pooled together. The per-call costs are
// taken over the whole windows: a stall does not change them, while growing
// a table or a collection cycle is a burst that whole windows count once.
func endToEnd(w window, setup float64) []metric {
	q := pool(quietSlots(w.slots))
	all := pool(w.slots)
	return []metric{
		{"calls_per_s", "calls/s", float64(q.calls) / q.seconds},
		{"call_p50_us", "us", q.lat.quantile(0.50) / 1e3},
		{"call_p99_us", "us", q.lat.quantile(0.99) / 1e3},
		{"cpu_us_per_call", "us", w.perCall(float64(all.cpu) / 1e3)},
		{"allocs_per_call", "count", w.perCall(float64(all.mallocs))},
		{"alloc_bytes_per_call", "B", w.perCall(float64(all.bytes))},
		{"frames_per_call", "count", w.perCall(float64(all.frames))},
		{"retained_bytes_per_call", "B", w.perCall(float64(w.retained))},
		{"setup_s", "s", setup},
	}
}

// median returns the median of xs (which it sorts).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
