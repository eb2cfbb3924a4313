package main

// Open-loop heavy-traffic benchmark (-open): calls are issued at a fixed
// arrival rate from a schedule that does not slow down when the system
// does — unlike the closed-loop Go benchmarks, where a slow reply delays
// the next arrival and hides queueing. The harness reports achieved
// throughput and completion-latency percentiles; it pins no numbers (the
// gated measurements are groupbench's).
//
// The client issues no-wait (asynchronous) calls; a pool of collector
// goroutines blocks on the results. Arrival bursts within one scheduling
// quantum therefore overlap in the send path, which is exactly the
// traffic shape the per-destination flush queue coalesces.

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"mrpc"
)

// openResult is one open-loop run's summary.
type openResult struct {
	Issued       int
	Completed    int
	ThroughputPS float64
	P50US        float64
	P99US        float64
}

// runOpenLoop drives one open-loop pass and returns its summary.
func runOpenLoop(rate, servers int, dur time.Duration) (openResult, error) {
	sys := mrpc.NewSystem(mrpc.SystemOptions{})
	defer sys.Stop()

	reg := mrpc.NewRegistry()
	op := reg.Register("work", func(_ *mrpc.Thread, args []byte) []byte { return args })

	cfg := mrpc.ExactlyOnce()
	cfg.Call = mrpc.CallAsynchronous
	cfg.RetransTimeout = 50 * time.Millisecond

	members := make([]mrpc.ProcID, 0, servers)
	for i := 1; i <= servers; i++ {
		id := mrpc.ProcID(i)
		if _, err := sys.AddServer(id, cfg, func() mrpc.App { return reg }); err != nil {
			return openResult{}, err
		}
		members = append(members, id)
	}
	client, err := sys.AddClient(100, cfg)
	if err != nil {
		return openResult{}, err
	}
	group := sys.Group(members...)

	type issued struct {
		id mrpc.CallID
		t0 time.Time
	}
	// The queue is sized for the worst case (every call of the run
	// outstanding at once) so the issuing loop never blocks on it — an
	// open-loop source must not be back-pressured by its own harness.
	queue := make(chan issued, rate*int(dur/time.Second)+rate)

	var (
		latMu sync.Mutex
		lats  []time.Duration
	)
	const collectors = 16
	var wg sync.WaitGroup
	for w := 0; w < collectors; w++ {
		wg.Add(1)
		//lint:ignore goroutine-discipline benchmark collectors; reaped via wg.Wait when the queue closes
		go func() {
			defer wg.Done()
			for it := range queue {
				_, status, err := client.Collect(it.id)
				if err != nil || status != mrpc.StatusOK {
					continue
				}
				lat := time.Since(it.t0) //lint:ignore determinism wall-clock latency is the measurement
				latMu.Lock()
				lats = append(lats, lat)
				latMu.Unlock()
			}
		}()
	}

	interval := time.Second / time.Duration(rate)
	args := []byte("ping")
	start := time.Now() //lint:ignore determinism the open-loop schedule runs in real time by design
	deadline := start.Add(dur)
	next := start
	nIssued := 0
	for {
		now := time.Now() //lint:ignore determinism real-time arrival schedule
		if !now.Before(deadline) {
			break
		}
		if now.Before(next) {
			time.Sleep(next.Sub(now)) //lint:ignore determinism real-time arrival schedule
		}
		t0 := time.Now() //lint:ignore determinism wall-clock latency is the measurement
		id, err := client.CallAsync(op, args, group)
		if err != nil {
			return openResult{}, err
		}
		nIssued++
		queue <- issued{id: id, t0: t0}
		// Fixed schedule: a late arrival does not push back the ones after
		// it; the issuer catches up instead of silently lowering the rate.
		next = next.Add(interval)
	}
	close(queue)
	wg.Wait()
	elapsed := time.Since(start) //lint:ignore determinism wall-clock throughput is the measurement

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	res := openResult{Issued: nIssued, Completed: len(lats)}
	if len(lats) > 0 {
		res.ThroughputPS = float64(len(lats)) / elapsed.Seconds()
		res.P50US = float64(lats[len(lats)/2]) / float64(time.Microsecond)
		res.P99US = float64(lats[min(len(lats)-1, len(lats)*99/100)]) / float64(time.Microsecond)
	}
	return res, nil
}

// runOpenMode runs the open-loop benchmark `runs` times, prints every pass
// and the median pass by p50 latency.
func runOpenMode(rate, servers, runs int, dur time.Duration) error {
	if runs < 1 {
		runs = 1
	}
	results := make([]openResult, 0, runs)
	for i := 0; i < runs; i++ {
		r, err := runOpenLoop(rate, servers, dur)
		if err != nil {
			return err
		}
		results = append(results, r)
		fmt.Printf("open pass %d/%d: rate=%d/s achieved=%.0f/s p50=%.0fus p99=%.0fus (%d/%d completed)\n",
			i+1, runs, rate, r.ThroughputPS, r.P50US, r.P99US, r.Completed, r.Issued)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].P50US < results[j].P50US })
	med := results[len(results)/2]
	fmt.Printf("open median: throughput=%.0f/s p50=%.0fus p99=%.0fus\n",
		med.ThroughputPS, med.P50US, med.P99US)
	return nil
}
