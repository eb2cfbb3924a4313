// Command mrpccheck is the conformance harness driver: it samples the
// configuration space, runs seeded workloads under scripted fault
// schedules, and replays the structured traces through the per-property
// oracles of internal/check.
//
//	mrpccheck -smoke            # CI: a small sampled sweep (default 30 runs)
//	mrpccheck -sweep            # nightly: every configuration under every applicable template
//	mrpccheck -repro seed.json  # re-run a seed artifact twice and compare digests
//
// On a violation the failing scenario is shrunk and written as a seed
// artifact (JSON) for -repro — under $TMPDIR/mrpccheck unless -out names
// another directory — and the exit status is 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mrpc"
	"mrpc/internal/check"
	"mrpc/internal/clock"
	"mrpc/internal/config"
	"mrpc/internal/nettcp"
)

func main() {
	var (
		smoke  = flag.Bool("smoke", false, "run a sampled smoke sweep")
		sweep  = flag.Bool("sweep", false, "run every configuration under every applicable template")
		repro  = flag.String("repro", "", "re-run the seed artifact at this path and verify its digest reproduces")
		seed   = flag.Int64("seed", 1, "master seed for scenario sampling")
		count  = flag.Int("n", 30, "number of scenarios for -smoke")
		outDir = flag.String("out", filepath.Join(os.TempDir(), "mrpccheck"), "directory for seed artifacts written on violation (created if missing)")
		shrink = flag.Int("shrink", 40, "run budget for shrinking a violating scenario (0 disables)")
		tport  = flag.String("transport", "sim", `substrate for -smoke/-sweep: "sim", or "tcp" to run fault-free scenarios over TCP loopback and require each digest to match its simulator replay`)
		tmpl   = flag.String("template", "", `only run scenarios of this template (name prefix, e.g. "churn" or "gray-slow"); generation oversamples until -n matches are found`)
	)
	flag.Parse()

	switch {
	case *repro != "":
		os.Exit(runRepro(*repro))
	case *sweep && *tport == "tcp":
		os.Exit(runCross(filterScenarios(sweepScenarios(*seed), *tmpl, 0), *outDir))
	case *sweep:
		os.Exit(runScenarios(filterScenarios(sweepScenarios(*seed), *tmpl, 0), *outDir, *shrink))
	case *smoke && *tport == "tcp":
		os.Exit(runCross(generateFiltered(*seed, *count, *tmpl), *outDir))
	case *smoke:
		os.Exit(runScenarios(generateFiltered(*seed, *count, *tmpl), *outDir, *shrink))
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// filterScenarios keeps the scenarios whose template (name prefix) matches
// tmpl; an empty tmpl keeps everything. A positive max truncates.
func filterScenarios(scs []check.Scenario, tmpl string, max int) []check.Scenario {
	if tmpl == "" {
		return scs
	}
	out := scs[:0]
	for _, sc := range scs {
		if strings.HasPrefix(sc.Name, tmpl) {
			out = append(out, sc)
			if max > 0 && len(out) == max {
				break
			}
		}
	}
	return out
}

// generateFiltered samples until count scenarios of the requested template
// are found (Generate's stream is deterministic, so oversampling keeps the
// kept subsequence stable for a given seed).
func generateFiltered(seed int64, count int, tmpl string) []check.Scenario {
	if tmpl == "" {
		return check.Generate(seed, count)
	}
	// The rarest templates fill ~1/15 of the stream; 40x oversampling finds
	// count matches for any template that can host some configuration.
	return filterScenarios(check.Generate(seed, 40*count), tmpl, count)
}

// runCross executes every cross-transport-safe scenario twice — once on
// the simulator, once over TCP loopback — and requires conforming runs
// with identical digests: the real transport proving the seam against its
// deterministic twin. Simulator-only scenarios (faults, partitions) are
// skipped.
func runCross(scs []check.Scenario, outDir string) int {
	tcpFactory := func(clk clock.Clock) mrpc.Transport {
		return nettcp.New(clk, nettcp.Options{})
	}
	fail, ran := 0, 0
	for i, sc := range scs {
		if !sc.CrossTransportSafe() {
			continue
		}
		ran++
		sim, err := check.Run(sc)
		if err == nil && len(sim.Violations) == 0 {
			var tcp *check.Result
			tcp, err = check.RunOver(sc, tcpFactory)
			switch {
			case err != nil:
			case len(tcp.Violations) > 0:
				err = fmt.Errorf("tcp run: %d violation(s): %s", len(tcp.Violations), tcp.Violations[0])
			case tcp.Digest != sim.Digest:
				err = fmt.Errorf("digest diverges: sim %.12s tcp %.12s", sim.Digest, tcp.Digest)
			}
		} else if err == nil {
			err = fmt.Errorf("sim run: %d violation(s): %s", len(sim.Violations), sim.Violations[0])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "FAIL %3d/%d %-20s %v\n", i+1, len(scs), sc.Name, err)
			writeArtifact(outDir, sc)
			fail++
			continue
		}
		fmt.Printf("ok   %3d/%d %-20s sim=tcp digest %.12s\n", i+1, len(scs), sc.Name, sim.Digest)
	}
	if fail > 0 {
		fmt.Fprintf(os.Stderr, "mrpccheck: %d/%d cross-transport scenarios failed\n", fail, ran)
		return 1
	}
	fmt.Printf("mrpccheck: %d cross-transport scenarios conform (digests match the simulator)\n", ran)
	return 0
}

// sweepScenarios samples broadly enough that every enumerated configuration
// appears several times across the templates (Generate skips templates a
// configuration cannot host, so oversample).
func sweepScenarios(seed int64) []check.Scenario {
	return check.Generate(seed, 4*len(config.Enumerate()))
}

func runScenarios(scs []check.Scenario, outDir string, shrinkBudget int) int {
	fail := 0
	for i, sc := range scs {
		res, err := check.Run(sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "FAIL %3d/%d %-20s run error: %v\n", i+1, len(scs), sc.Name, err)
			writeArtifact(outDir, sc)
			fail++
			continue
		}
		if len(res.Violations) > 0 {
			if shrinkBudget > 0 {
				sc, res = check.Shrink(sc, shrinkBudget)
			}
			fmt.Fprintf(os.Stderr, "FAIL %3d/%d %-20s %d violation(s):\n", i+1, len(scs), sc.Name, len(res.Violations))
			for _, v := range res.Violations {
				fmt.Fprintf(os.Stderr, "    %s\n", v)
			}
			writeArtifact(outDir, sc)
			fail++
			continue
		}
		fmt.Printf("ok   %3d/%d %-20s digest %.12s\n", i+1, len(scs), sc.Name, res.Digest)
	}
	if fail > 0 {
		fmt.Fprintf(os.Stderr, "mrpccheck: %d/%d scenarios failed\n", fail, len(scs))
		return 1
	}
	fmt.Printf("mrpccheck: %d scenarios conform\n", len(scs))
	return 0
}

func runRepro(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mrpccheck: %v\n", err)
		return 2
	}
	var sc check.Scenario
	if err := json.Unmarshal(data, &sc); err != nil {
		fmt.Fprintf(os.Stderr, "mrpccheck: %s: %v\n", path, err)
		return 2
	}
	first, err := check.Run(sc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mrpccheck: %s: %v\n", sc.Name, err)
		return 1
	}
	second, err := check.Run(sc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mrpccheck: %s: rerun: %v\n", sc.Name, err)
		return 1
	}
	fmt.Printf("%s: digest %s\n", sc.Name, first.Digest)
	if first.Digest != second.Digest {
		fmt.Fprintf(os.Stderr, "mrpccheck: %s: digest did not reproduce (rerun %s)\n", sc.Name, second.Digest)
		return 1
	}
	for _, v := range first.Violations {
		fmt.Printf("    %s\n", v)
	}
	if len(first.Violations) > 0 {
		fmt.Printf("%s: %d violation(s) reproduced\n", sc.Name, len(first.Violations))
		return 1
	}
	fmt.Printf("%s: conforms; digest reproduced\n", sc.Name)
	return 0
}

func writeArtifact(dir string, sc check.Scenario) {
	data, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "mrpccheck: marshal artifact: %v\n", err)
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "mrpccheck: artifact directory: %v\n", err)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("mrpccheck-%s-%d.json", sc.Name, sc.Seed))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "mrpccheck: write artifact: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "    seed artifact: %s (mrpccheck -repro %s)\n", path, path)
}
