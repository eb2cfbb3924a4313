// Command mrpcbench runs the experiment harness: every figure of the paper
// regenerated from the implementation (E1–E5) and the performance/fault
// characterizations that back its design claims (E6–E15). See DESIGN.md §3
// for the experiment index.
//
// Usage:
//
//	mrpcbench              run every experiment
//	mrpcbench -e E5        run one experiment (E1..E14, E8b)
//	mrpcbench -seed 42     change the fault-injection seed
//	mrpcbench -open        run the open-loop smoke (see openloop.go)
//
// The repository's benchmark is groupbench (groupbench/README.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mrpc/internal/experiments"
)

func main() {
	var (
		exp  = flag.String("e", "", "experiment id to run (E1..E14, E8b); empty = all")
		seed = flag.Int64("seed", 7, "fault-injection seed")

		open        = flag.Bool("open", false, "run the open-loop heavy-traffic benchmark (see openloop.go)")
		openRate    = flag.Int("rate", 20000, "open-loop arrival rate, calls/s")
		openServers = flag.Int("servers", 3, "open-loop server group size")
		openRuns    = flag.Int("runs", 3, "open-loop passes (median by p50 is reported)")
		openDur     = flag.Duration("dur", 3*time.Second, "open-loop duration per pass")
	)
	flag.Parse()

	if *open {
		if err := runOpenMode(*openRate, *openServers, *openRuns, *openDur); err != nil {
			fmt.Fprintf(os.Stderr, "mrpcbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *exp != "" {
		r, ok := experiments.ByID(*exp, *seed)
		if !ok {
			fmt.Fprintf(os.Stderr, "mrpcbench: unknown experiment %q\n", *exp)
			os.Exit(2)
		}
		fmt.Print(r)
		if !r.Pass {
			os.Exit(1)
		}
		return
	}

	failed := 0
	for _, r := range experiments.All(*seed) {
		fmt.Print(r)
		fmt.Println()
		if !r.Pass {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "mrpcbench: %d experiment(s) failed\n", failed)
		os.Exit(1)
	}
}
