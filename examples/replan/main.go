// Periodic replanning (§3.1): the planner "periodically receives updated
// estimates of future workload, reruns the planning problem, and updates
// the guidelines". Here a second wave of jobs becomes known only at t=60s;
// the replan schedules it around commitments from the still-running first
// wave, and the merged plan drives one simulation.
//
//	go run ./examples/replan
package main

import (
	"fmt"
	"log"
	"sort"

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
	cluster.BackgroundPerRack = 0.5 * cluster.RackUplinkCapacity()

	wave1 := corral.W1(corral.WorkloadConfig{
		Seed: 31, Jobs: 8, Scale: 1.0 / 20, TaskScale: 1.0 / 20,
	})
	wave2 := corral.W1(corral.WorkloadConfig{
		Seed: 32, Jobs: 8, Scale: 1.0 / 20, TaskScale: 1.0 / 20,
	})
	const wave2At = 60.0
	for i, j := range wave2 {
		j.ID = len(wave1) + 1 + i
		j.Arrival = wave2At
	}

	// Plan wave 1 alone — wave 2 is not known yet.
	plan1, err := corral.PlanOnline(cluster, wave1)
	if err != nil {
		log.Fatal(err)
	}

	// At t=60 the second wave's estimates arrive. Jobs from wave 1 that
	// are expected to still be running hold their racks as commitments
	// (sorted by job ID: Assignments is a map, and commitment order must
	// not depend on its random iteration order).
	ids := make([]int, 0, len(plan1.Assignments))
	for id := range plan1.Assignments {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var commitments []corral.Commitment
	for _, id := range ids {
		if a := plan1.Assignments[id]; a.End() > wave2At {
			commitments = append(commitments, corral.Commitment{Racks: a.Racks, Until: a.End()})
		}
	}
	plan2, err := corral.Replan(cluster, wave2, wave2At, commitments)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replanned wave 2 around %d commitments:\n", len(commitments))
	for _, j := range wave2 {
		a := plan2.Assignments[j.ID]
		fmt.Printf("  job %-2d -> racks %v, planned start %.1fs\n", j.ID, a.Racks, a.Start)
	}

	merged := corral.MergePlans(plan1, plan2)
	all := append(corral.CloneJobs(wave1), corral.CloneJobs(wave2)...)

	corralRes, err := corral.Simulate(corral.SimConfig{
		Topology: cluster, Scheduler: corral.SchedulerCorral, Plan: merged, Seed: 31,
	}, corral.CloneJobs(all))
	if err != nil {
		log.Fatal(err)
	}
	yarnRes, err := corral.Simulate(corral.SimConfig{
		Topology: cluster, Scheduler: corral.SchedulerYarnCS, Seed: 31,
	}, corral.CloneJobs(all))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\navg completion: yarn-cs %.1fs -> corral (replanned) %.1fs\n",
		yarnRes.AvgCompletionTime(), corralRes.AvgCompletionTime())
	fmt.Printf("cross-rack traffic: %.1f GB -> %.1f GB\n",
		yarnRes.CrossRackBytes/1e9, corralRes.CrossRackBytes/1e9)
}
