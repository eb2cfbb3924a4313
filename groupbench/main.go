// Command groupbench is the closed-loop benchmark of the group call path.
//
// Each workload builds a whole group in this process through the public
// facade, sets it up several times, then drives it from at most two calling
// goroutines for the measured window and checks every output. The default
// mode prints the end-to-end metrics; -trace 1 runs an untraced and a
// traced half-window and prints the per-layer metrics of the traced half,
// with the tracing overhead. The last line of standard output is the
// result as one JSON object. Build and run it from the repository root
// with
//
//	bash groupbench/run.sh --workload sim_kv_g3 --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// windowShares are the windows of the systems a run builds, warms and
// measures one after another, in thirtieths of the run's seconds; setup_s
// is the median of their set-up times. Several systems average out how one
// happened to settle. The windows differ, over a factor of two, because the
// live heap grows in steps as tables double: a window's retained bytes per
// call depend on where its call count falls between two steps, and windows
// spread over a doubling sample every position.
var windowShares = [...]int{4, 5, 6, 7, 8}

// outDir, relative to the directory the benchmark runs in, receives the
// result and span files.
const outDir = ".bench_out"

type metric struct {
	name, unit string
	value      float64
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload: "+workloadNames())
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 30, "length of the measured window")
	traced := flag.Int("trace", 0, "1: print per-layer metrics from a traced run")
	flag.Parse()

	wl, err := findWorkload(*name)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("-seconds must be at least 1")
	}
	if err == nil && *traced != 0 && *traced != 1 {
		err = fmt.Errorf("-trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "groupbench:", err)
		os.Exit(2)
	}
	d := time.Duration(*seconds) * time.Second
	var res result
	if *traced == 1 {
		res, err = runTraced(wl, *seed, d)
	} else {
		res, err = runPlain(wl, *seed, d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "groupbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "groupbench:", err)
		os.Exit(1)
	}
	if err := os.MkdirAll(outDir, 0o755); err == nil {
		path := filepath.Join(outDir, fmt.Sprintf("result-%s-seed%d-trace%d.json", wl.name, *seed, *traced))
		if err := os.WriteFile(path, append(line, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "groupbench:", err)
		}
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// setUp builds and warms one instance: every caller runs wl.warm rounds.
func setUp(wl workload, seed int64, tr *tracer, v *verifier) (*instance, error) {
	in, err := wl.build(seed, tr, v)
	if err != nil {
		return nil, err
	}
	recs := make([]*recorder, len(in.callers))
	done := make(chan struct{}, len(in.callers))
	for i, round := range in.callers {
		recs[i] = newRecorder(time.Now(), 0, 1)
		go func(round func(*recorder), rec *recorder) {
			for r := 0; r < wl.warm; r++ {
				round(rec)
			}
			done <- struct{}{}
		}(round, recs[i])
	}
	for range in.callers {
		<-done
	}
	for _, r := range recs {
		if r.failed[0] > 0 {
			v.add(fmt.Errorf("%d of %d warm-up calls failed", r.failed[0], r.calls[0]))
		}
	}
	return in, nil
}

// finish quiesces and checks an instance, then stops it.
func finish(in *instance, v *verifier) {
	in.sys.Quiesce()
	in.check(v)
	in.sys.Stop()
}

// runPlain measures the end-to-end metrics with tracing off.
func runPlain(wl workload, seed int64, d time.Duration) (result, error) {
	v := &verifier{}
	setups := make([]float64, len(windowShares))
	var w window
	for i, share := range windowShares {
		start := time.Now()
		in, err := setUp(wl, seed, nil, v)
		if err != nil {
			return result{}, err
		}
		setups[i] = time.Since(start).Seconds()
		w.add(measure(in, d*time.Duration(share)/30))
		finish(in, v)
	}

	setup := median(setups)
	summary(wl, seed, w, v)
	fmt.Printf("setup: median %.4fs of %d\n", setup, len(setups))
	return newResult(v, w.calls, w.failed, endToEnd(w, setup)), nil
}

// runTraced measures an untraced half-window, then a traced one, and
// reports the traced half's per-layer metrics and the overhead between the
// two halves.
func runTraced(wl workload, seed int64, d time.Duration) (result, error) {
	v := &verifier{}
	in, err := setUp(wl, seed, nil, v)
	if err != nil {
		return result{}, err
	}
	base := measure(in, d/2)
	finish(in, v)

	tr := newTracer()
	in, err = setUp(wl, seed, tr, v)
	if err != nil {
		return result{}, err
	}
	w := measure(in, d/2)
	finish(in, v)

	summary(wl, seed, w, v)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", wl.name, seed))
	n, err := tr.writeSpans(path)
	if err != nil {
		return result{}, err
	}
	fmt.Printf("spans: %d written to %s\n", n, path)
	ms, err := perLayer(w, base, tr)
	if err != nil {
		return result{}, err
	}
	return newResult(v, base.calls+w.calls, base.failed+w.failed, ms), nil
}

// summary prints a window's figures in readable form.
func summary(wl workload, seed int64, w window, v *verifier) {
	fmt.Printf("workload %s seed %d: %d calls (%d failed) in %.3fs, GOMAXPROCS %d\n",
		wl.name, seed, w.calls, w.failed, w.seconds, runtime.GOMAXPROCS(0))
	fmt.Printf("latency over the window: %d samples, p50 %.1fus, p99 %.1fus (%d beyond p99)\n",
		w.lat.n, w.lat.quantile(0.5)/1e3, w.lat.quantile(0.99)/1e3, w.lat.n/100)
	quiet := quietSlots(w.slots)
	q := pool(quiet)
	var steal, limit float64
	for _, s := range w.slots {
		steal += s.steal
	}
	for _, s := range quiet {
		limit = max(limit, s.steal)
	}
	fmt.Printf("quiet slots: %d of %d (host steal %.1f%% on average, at most %.1f%% in a quiet slot); %d samples, %d beyond p99\n",
		len(quiet), len(w.slots), 100*steal/float64(len(w.slots)), 100*limit, q.lat.n, q.lat.n/100)
	if err := v.err(); err != nil {
		fmt.Printf("checks: FAILED: %v\n", err)
	} else {
		fmt.Println("checks: passed")
	}
}

func newResult(v *verifier, attempted, failed int64, ms []metric) result {
	r := result{
		Correct:   v.err() == nil,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metricValue, len(ms)),
	}
	for _, m := range ms {
		r.Metrics[m.name] = metricValue{m.value, m.unit}
	}
	return r
}
