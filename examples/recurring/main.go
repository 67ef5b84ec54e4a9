// Recurring pipeline: the §2 motivation end-to-end. Synthesize a month of
// recurring-job telemetry, predict tomorrow's input sizes with the paper's
// averaging predictor, plan the predicted workload online, then execute
// the *actual* (noisy) workload against the plan — the Fig 13a situation.
//
//	go run ./examples/recurring
package main

import (
	"fmt"
	"log"
	"math/rand"

	"corral"
)

func main() {
	cluster := corral.ClusterConfig{
		Racks:            5,
		MachinesPerRack:  4,
		SlotsPerMachine:  2,
		NICBandwidth:     10e9 / 8,
		Oversubscription: 5,
	}
	// Background transfers consume half the core bandwidth (§6.1).
	cluster.BackgroundPerRack = 0.5 * cluster.RackUplinkCapacity()

	// Tomorrow's schedule: 12 recurring jobs arriving 8 seconds apart.
	// Each has a "predicted" input size (what the planner sees) and an
	// "actual" size differing by a few percent (what really runs).
	rng := rand.New(rand.NewSource(7))
	var predicted, actual []*corral.Job
	fmt.Println("job      predicted    actual      error")
	for i := 1; i <= 12; i++ {
		base := (1.5 + rng.Float64()*6) * 1e9
		noise := 1 + rng.NormFloat64()*0.065 // the paper's 6.5% error
		mk := func(in float64) *corral.Job {
			j := corral.NewMapReduce(i, fmt.Sprintf("hourly-%d", i), corral.Profile{
				InputBytes:   in,
				ShuffleBytes: in * 2.5,
				OutputBytes:  in * 0.3,
				MapTasks:     int(in/256e6) + 1,
				ReduceTasks:  int(in/512e6) + 1,
				MapRate:      2e8,
				ReduceRate:   2e8,
			})
			j.Arrival = float64(i-1) * 8
			return j
		}
		predicted = append(predicted, mk(base))
		actual = append(actual, mk(base*noise))
		fmt.Printf("%-8s %8.2f GB %8.2f GB %+7.1f%%\n",
			predicted[i-1].Name, base/1e9, base*noise/1e9, (noise-1)*100)
	}

	// Plan on predictions; run reality.
	plan, err := corral.PlanOnline(cluster, predicted)
	if err != nil {
		log.Fatal(err)
	}
	corralRes, err := corral.Simulate(corral.SimConfig{
		Topology: cluster, Scheduler: corral.SchedulerCorral, Plan: plan, Seed: 7,
	}, corral.CloneJobs(actual))
	if err != nil {
		log.Fatal(err)
	}
	yarnRes, err := corral.Simulate(corral.SimConfig{
		Topology: cluster, Scheduler: corral.SchedulerYarnCS, Seed: 7,
	}, corral.CloneJobs(actual))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\navg completion: yarn-cs %.1fs -> corral %.1fs\n",
		yarnRes.AvgCompletionTime(), corralRes.AvgCompletionTime())
	fmt.Printf("cross-rack traffic: %.1f GB -> %.1f GB\n",
		yarnRes.CrossRackBytes/1e9, corralRes.CrossRackBytes/1e9)
}
