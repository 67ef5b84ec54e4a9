// Ad-hoc mix (§6.4): schedule recurring jobs with Corral while unplanned
// ad-hoc jobs share the cluster, and show that *both* groups finish
// faster — the recurring jobs free core bandwidth the ad-hoc jobs then
// use. Also demonstrates the §3.1 failure fallback: with most machines of
// a job's planned racks dead, Corral releases the placement constraints.
//
//	go run ./examples/adhocmix
package main

import (
	"fmt"
	"log"

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

	build := func() []*corral.Job {
		recurring := corral.W1(corral.WorkloadConfig{
			Seed: 21, Jobs: 14, Scale: 1.0 / 16, TaskScale: 1.0 / 16,
			ArrivalWindow: 60,
		})
		adhoc := corral.MarkAdHoc(corral.W1(corral.WorkloadConfig{
			Seed: 22, Jobs: 7, Scale: 1.0 / 16, TaskScale: 1.0 / 16,
		}))
		for i, j := range adhoc {
			j.ID = len(recurring) + 1 + i
		}
		return append(recurring, adhoc...)
	}

	group := func(res *corral.Result, adhoc bool) (mean float64, n int) {
		for i := range res.Jobs {
			if res.Jobs[i].AdHoc == adhoc {
				mean += res.Jobs[i].CompletionTime
				n++
			}
		}
		return mean / float64(n), n
	}

	yarn, err := corral.Simulate(corral.SimConfig{
		Topology: cluster, Scheduler: corral.SchedulerYarnCS, Seed: 9,
	}, build())
	if err != nil {
		log.Fatal(err)
	}
	jobs := build()
	plan, err := corral.PlanOnline(cluster, jobs)
	if err != nil {
		log.Fatal(err)
	}
	cres, err := corral.Simulate(corral.SimConfig{
		Topology: cluster, Scheduler: corral.SchedulerCorral, Plan: plan, Seed: 9,
	}, jobs)
	if err != nil {
		log.Fatal(err)
	}

	for _, g := range []struct {
		name  string
		adhoc bool
	}{{"recurring", false}, {"ad-hoc", true}} {
		ym, n := group(yarn, g.adhoc)
		cm, _ := group(cres, g.adhoc)
		fmt.Printf("%-10s (%2d jobs): mean completion yarn-cs %6.1fs -> corral %6.1fs\n",
			g.name, n, ym, cm)
	}

	// Failure handling: kill 3 of 4 machines in rack 0 and rerun. Jobs
	// planned onto rack 0 fall back to unconstrained placement and still
	// finish.
	failed := []int{0, 1, 2}
	fres, err := corral.Simulate(corral.SimConfig{
		Topology: cluster, Scheduler: corral.SchedulerCorral, Plan: plan,
		Seed: 9, FailedMachines: failed,
	}, build())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwith machines %v dead: all %d jobs still completed (makespan %.1fs)\n",
		failed, len(fres.Jobs), fres.Makespan)
}
