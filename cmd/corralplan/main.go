// Command corralplan runs Corral's offline planner over a workload JSON
// (as produced by workloadgen) and prints the schedule: each job's rack
// set R_j, priority p_j, planned start and estimated latency.
//
// Usage:
//
//	workloadgen -workload w1 -jobs 20 -scale 0.1 | corralplan -racks 7 -machines 30
//	corralplan -in jobs.json -objective online -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"corral"
)

func main() {
	var (
		in       = flag.String("in", "-", "input workload JSON (\"-\" = stdin)")
		racks    = flag.Int("racks", 7, "number of racks")
		machines = flag.Int("machines", 30, "machines per rack")
		slots    = flag.Int("slots", 8, "slots per machine")
		nicGbps  = flag.Float64("nic-gbps", 10, "NIC bandwidth in Gbit/s")
		oversub  = flag.Float64("oversub", 5, "rack-to-core oversubscription")
		obj      = flag.String("objective", "batch", "batch (makespan) or online (avg completion)")
		asJSON   = flag.Bool("json", false, "emit the plan as JSON")
	)
	flag.Parse()

	jobs, err := readJobs(*in)
	if err != nil {
		fatal(err)
	}
	cluster := corral.ClusterConfig{
		Racks:            *racks,
		MachinesPerRack:  *machines,
		SlotsPerMachine:  *slots,
		NICBandwidth:     *nicGbps * 1e9 / 8,
		Oversubscription: *oversub,
	}
	if err := cluster.Validate(); err != nil {
		fatal(err)
	}

	var plan *corral.Plan
	switch *obj {
	case "batch":
		plan, err = corral.PlanBatch(cluster, jobs)
	case "online":
		plan, err = corral.PlanOnline(cluster, jobs)
	default:
		err = fmt.Errorf("unknown objective %q", *obj)
	}
	if err != nil {
		fatal(err)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(plan); err != nil {
			fatal(err)
		}
		return
	}

	assignments := make([]*corral.Assignment, 0, len(plan.Assignments))
	for _, a := range plan.Assignments {
		assignments = append(assignments, a)
	}
	sort.Slice(assignments, func(i, j int) bool {
		return assignments[i].Priority < assignments[j].Priority
	})
	fmt.Printf("%-6s %-4s %-16s %-10s %-10s\n", "job", "prio", "racks", "start", "est-latency")
	for _, a := range assignments {
		racksStr := ""
		for i, rk := range a.Racks {
			if i > 0 {
				racksStr += ","
			}
			racksStr += fmt.Sprintf("%d", rk)
		}
		fmt.Printf("%-6d %-4d %-16s %-10.1f %-10.1f\n",
			a.JobID, a.Priority, racksStr, a.Start, a.EstLatency)
	}
	fmt.Printf("\nestimated makespan: %.1f s\n", plan.Makespan)
	fmt.Printf("estimated avg completion: %.1f s\n", plan.AvgCompletion)
}

func readJobs(path string) ([]*corral.Job, error) {
	if path == "-" {
		return decodeJobs(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return decodeJobs(f)
}

// decodeJobs parses a workload JSON array. It checks syntax only: the
// planner validates the jobs themselves (nil entries, profiles, duplicate
// IDs) and reports what it rejects as an error.
func decodeJobs(r io.Reader) ([]*corral.Job, error) {
	var jobs []*corral.Job
	if err := json.NewDecoder(r).Decode(&jobs); err != nil {
		return nil, fmt.Errorf("decoding workload: %w", err)
	}
	return jobs, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "corralplan:", err)
	os.Exit(1)
}
