// Command perfbench is the repository's benchmark: it runs one named
// workload through the offline planner and the simulator and prints the
// end-to-end metrics (-trace 0) or the per-layer metrics of a traced pass
// (-trace 1), checking every simulation's output on the way. The last line
// of its output is one JSON object with the keys correct, attempted,
// failed and metrics. See README.md for the workloads and metrics.
//
// Usage:
//
//	perfbench -workload dc2k-online -seed 1 -seconds 20 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// deadline bounds a whole invocation; rep processes still running then are
// killed and the run reports the failure.
const deadline = 170 * time.Second

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "how long the timed pass measures")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced pass")
	rep := fs.Bool("rep", false, "internal: run one rep and print it as JSON")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds > 0 and -trace 0|1\n", workloadNames())
		return 2
	}
	if *rep {
		if err := json.NewEncoder(os.Stdout).Encode(runRep(w, *seed)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	var r *report
	if *traced == 0 {
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		defer cancel()
		r = timedPass(ctx, w, *seed, *seconds)
	} else {
		r = layerPass(w, *seed)
	}
	if err := r.write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.Name
	}
	return s
}
