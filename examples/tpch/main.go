// TPC-H DAGs: run Hive-style DAG queries (§6.3) as recurring jobs planned
// by Corral while an ad-hoc MapReduce batch competes for the cluster, and
// compare query latencies against the capacity scheduler.
//
//	go run ./examples/tpch
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
	// Background transfers consume half the core bandwidth (§6.1).
	cluster.BackgroundPerRack = 0.5 * cluster.RackUplinkCapacity()

	build := func() []*corral.Job {
		// Six TPC-H-shaped queries over a (scaled) shared database,
		// arriving over ninety seconds.
		queries := corral.TPCH(corral.WorkloadConfig{
			Seed: 11, Jobs: 6, Scale: 0.05, ArrivalWindow: 90,
		}, 0)
		// Plus interfering ad-hoc MapReduce work at t = 0.
		noise := corral.MarkAdHoc(corral.W1(corral.WorkloadConfig{
			Seed: 12, Jobs: 8, Scale: 1.0 / 25, TaskScale: 1.0 / 25,
		}))
		for i, j := range noise {
			j.ID = len(queries) + 1 + i
		}
		return append(queries, noise...)
	}

	queryTimes := func(res *corral.Result) []float64 {
		var out []float64
		for i := range res.Jobs {
			if !res.Jobs[i].AdHoc {
				out = append(out, res.Jobs[i].CompletionTime)
			}
		}
		sort.Float64s(out)
		return out
	}

	yarnJobs := build()
	yarn, err := corral.Simulate(corral.SimConfig{
		Topology: cluster, Scheduler: corral.SchedulerYarnCS, Seed: 3,
	}, yarnJobs)
	if err != nil {
		log.Fatal(err)
	}

	corralJobs := build()
	plan, err := corral.PlanOnline(cluster, corralJobs) // ad-hoc jobs are skipped automatically
	if err != nil {
		log.Fatal(err)
	}
	cres, err := corral.Simulate(corral.SimConfig{
		Topology: cluster, Scheduler: corral.SchedulerCorral, Plan: plan, Seed: 3,
	}, corralJobs)
	if err != nil {
		log.Fatal(err)
	}

	y, c := queryTimes(yarn), queryTimes(cres)
	fmt.Println("query completion times (seconds), sorted:")
	fmt.Printf("  yarn-cs: ")
	for _, v := range y {
		fmt.Printf("%7.1f", v)
	}
	fmt.Printf("\n  corral:  ")
	for _, v := range c {
		fmt.Printf("%7.1f", v)
	}
	med := func(v []float64) float64 { return v[len(v)/2] }
	fmt.Printf("\nmedian: yarn-cs %.1fs -> corral %.1fs\n", med(y), med(c))
}
