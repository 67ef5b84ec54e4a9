// Quickstart: plan a small batch of shuffle-heavy MapReduce jobs with
// Corral's offline planner and compare the simulated execution against
// YARN's capacity scheduler.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"corral"
)

func main() {
	// A small cluster: 4 racks x 4 machines, 10 Gbps NICs, 5:1
	// oversubscription to the core — full bisection bandwidth inside each
	// rack, a congested core between racks.
	cluster := corral.ClusterConfig{
		Racks:            4,
		MachinesPerRack:  4,
		SlotsPerMachine:  2,
		NICBandwidth:     10e9 / 8,
		Oversubscription: 5,
	}

	// Four recurring shuffle-heavy jobs: each fits in a single rack, so a
	// good plan isolates them spatially and their shuffles never touch the
	// oversubscribed core.
	var jobs []*corral.Job
	for i := 1; i <= 4; i++ {
		jobs = append(jobs, corral.NewMapReduce(i, fmt.Sprintf("etl-%d", i), corral.Profile{
			InputBytes:   512e6,
			ShuffleBytes: 2e9,
			OutputBytes:  100e6,
			MapTasks:     8,
			ReduceTasks:  8,
			MapRate:      2e8,
			ReduceRate:   2e8,
		}))
	}

	// Offline planning: joint data + compute placement (§4).
	plan, err := corral.PlanBatch(cluster, jobs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("offline plan:")
	for _, j := range jobs {
		a := plan.Assignments[j.ID]
		fmt.Printf("  %s -> racks %v, priority %d, planned start %.1fs\n",
			j.Name, a.Racks, a.Priority, a.Start)
	}
	fmt.Printf("  LP lower bound on makespan: %.1fs (planned: %.1fs)\n\n",
		corral.BatchLowerBound(cluster, jobs), plan.Makespan)

	// Execute under both schedulers and compare.
	for _, run := range []struct {
		name string
		cfg  corral.SimConfig
	}{
		{"yarn-cs", corral.SimConfig{Topology: cluster, Scheduler: corral.SchedulerYarnCS, Seed: 42}},
		{"corral", corral.SimConfig{Topology: cluster, Scheduler: corral.SchedulerCorral, Plan: plan, Seed: 42}},
	} {
		res, err := corral.Simulate(run.cfg, corral.CloneJobs(jobs))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s makespan %6.1fs   cross-rack %6.2f GB   compute %6.0f task-sec\n",
			run.name, res.Makespan, res.CrossRackBytes/1e9, res.TaskSeconds)
	}
}
