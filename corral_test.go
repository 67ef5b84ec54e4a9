package corral_test

import (
	"fmt"
	"strings"
	"testing"

	"corral"
)

func smallCluster() corral.ClusterConfig {
	c := corral.DefaultCluster()
	c.MachinesPerRack = 4
	c.SlotsPerMachine = 2
	c.Racks = 4
	return c
}

func smallWorkload(seed int64) []*corral.Job {
	return corral.W1(corral.WorkloadConfig{
		Seed: seed, Jobs: 9, Scale: 1.0 / 40, TaskScale: 1.0 / 40,
	})
}

func TestDefaultClusterIsPaper(t *testing.T) {
	c := corral.DefaultCluster()
	if c.Machines() != 210 {
		t.Fatalf("default cluster has %d machines, want 210", c.Machines())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPlanRejectsMalformedJobLists: the public planning entry points
// return an error, not a panic or a silently merged plan, for a nil entry
// and for duplicate IDs — also when the duplicate is an ad-hoc job the
// planner itself never sees.
func TestPlanRejectsMalformedJobLists(t *testing.T) {
	withAdHocDup := append(smallWorkload(1), corral.MarkAdHoc(smallWorkload(1)[:1])...)
	cases := []struct {
		name string
		jobs []*corral.Job
		want string
	}{
		{"nil only", []*corral.Job{nil}, "entry 0 is nil"},
		{"nil among jobs", append(smallWorkload(1), nil), "is nil"},
		{"duplicate IDs", append(smallWorkload(1), smallWorkload(1)[0]), "duplicate ID"},
		{"ad-hoc duplicate", withAdHocDup, "duplicate ID"},
	}
	calls := map[string]func([]*corral.Job) error{
		"PlanBatch":  func(js []*corral.Job) error { _, err := corral.PlanBatch(smallCluster(), js); return err },
		"PlanOnline": func(js []*corral.Job) error { _, err := corral.PlanOnline(smallCluster(), js); return err },
		"Replan":     func(js []*corral.Job) error { _, err := corral.Replan(smallCluster(), js, 10, nil); return err },
	}
	for _, tc := range cases {
		for name, call := range calls {
			if err := call(tc.jobs); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s, %s: err = %v, want an error containing %q", tc.name, name, err, tc.want)
			}
		}
	}
}

func TestPlanAndSimulateEndToEnd(t *testing.T) {
	cluster := smallCluster()
	jobs := smallWorkload(1)
	plan, err := corral.PlanBatch(cluster, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Assignments) != len(jobs) {
		t.Fatalf("plan covers %d jobs, want %d", len(plan.Assignments), len(jobs))
	}
	res, err := corral.Simulate(corral.SimConfig{
		Topology: cluster, Scheduler: corral.SchedulerCorral, Plan: plan, Seed: 1,
	}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatal("no makespan")
	}
	lb := corral.BatchLowerBound(cluster, jobs)
	if lb <= 0 {
		t.Fatal("no lower bound")
	}
	if plan.Makespan < lb*(1-1e-9) {
		t.Fatalf("planned makespan %g below LP bound %g", plan.Makespan, lb)
	}
}

func TestSchedulerComparison(t *testing.T) {
	cluster := smallCluster()
	jobs := smallWorkload(2)
	plan, err := corral.PlanBatch(cluster, jobs)
	if err != nil {
		t.Fatal(err)
	}
	results := map[string]*corral.Result{}
	for name, cfg := range map[string]corral.SimConfig{
		"yarn":   {Topology: cluster, Scheduler: corral.SchedulerYarnCS, Seed: 3},
		"corral": {Topology: cluster, Scheduler: corral.SchedulerCorral, Plan: plan, Seed: 3},
	} {
		res, err := corral.Simulate(cfg, corral.CloneJobs(jobs))
		if err != nil {
			t.Fatal(err)
		}
		results[name] = res
	}
	if results["corral"].CrossRackBytes >= results["yarn"].CrossRackBytes {
		t.Fatalf("Corral cross-rack %g >= Yarn %g",
			results["corral"].CrossRackBytes, results["yarn"].CrossRackBytes)
	}
}

func TestOnlinePlanRespectsArrivals(t *testing.T) {
	cluster := smallCluster()
	jobs := corral.W1(corral.WorkloadConfig{
		Seed: 4, Jobs: 6, Scale: 1.0 / 40, TaskScale: 1.0 / 40, ArrivalWindow: 100,
	})
	plan, err := corral.PlanOnline(cluster, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if a := plan.Assignments[j.ID]; a.Start < j.Arrival-1e-9 {
			t.Fatalf("job %d planned before arrival", j.ID)
		}
	}
	if lb := corral.OnlineLowerBound(cluster, jobs); lb <= 0 || lb > plan.AvgCompletion*(1+1e-9) {
		t.Fatalf("online bound %g vs heuristic %g", lb, plan.AvgCompletion)
	}
}

func TestLatencyModel(t *testing.T) {
	m := corral.NewLatencyModel(corral.DefaultCluster())
	j := corral.NewMapReduce(1, "probe", corral.Profile{
		InputBytes: 10e9, ShuffleBytes: 10e9, OutputBytes: 1e9,
		MapTasks: 40, ReduceTasks: 20, MapRate: 1e8, ReduceRate: 1e8,
	})
	resp := m.Response(j, m.DefaultAlpha())
	if resp.Racks() != 7 {
		t.Fatalf("response domain %d, want 7", resp.Racks())
	}
	if best := resp.ArgMin(); best < 1 || best > 7 {
		t.Fatalf("ArgMin = %d", best)
	}
}

func TestVarysPolicyAvailable(t *testing.T) {
	cluster := smallCluster()
	jobs := smallWorkload(5)
	res, err := corral.Simulate(corral.SimConfig{
		Topology: cluster, Scheduler: corral.SchedulerYarnCS,
		Network: corral.VarysCoflow(), Seed: 5,
	}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatal("Varys run produced nothing")
	}
}

func TestExperimentRegistryViaAPI(t *testing.T) {
	list := corral.Experiments()
	if len(list) < 20 {
		t.Fatalf("%d experiments, want >= 20", len(list))
	}
	r, err := corral.RunExperiment("table1", corral.SizeSmall, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Values) == 0 {
		t.Fatal("experiment produced no values")
	}
	if _, err := corral.RunExperiment("bogus", corral.SizeSmall, 1); err == nil {
		t.Fatal("unknown experiment did not error")
	}
}

func TestMarkAdHocViaAPI(t *testing.T) {
	jobs := corral.MarkAdHoc(smallWorkload(6))
	for _, j := range jobs {
		if !j.AdHoc {
			t.Fatal("MarkAdHoc did not mark")
		}
	}
}

func TestTPCHViaAPI(t *testing.T) {
	qs := corral.TPCH(corral.WorkloadConfig{Seed: 7, Jobs: 3, Scale: 0.01}, 0)
	if len(qs) != 3 {
		t.Fatalf("%d queries", len(qs))
	}
	for _, q := range qs {
		if !q.IsDAG() {
			t.Fatal("TPCH query is not a DAG")
		}
	}
}

// ExamplePlanBatch demonstrates the quickstart flow.
func ExamplePlanBatch() {
	cluster := corral.ClusterConfig{
		Racks: 2, MachinesPerRack: 2, SlotsPerMachine: 2,
		NICBandwidth: 10e9 / 8, Oversubscription: 5,
	}
	jobs := []*corral.Job{
		corral.NewMapReduce(1, "logs-a", corral.Profile{
			InputBytes: 1e9, ShuffleBytes: 2e9, OutputBytes: 1e8,
			MapTasks: 4, ReduceTasks: 4, MapRate: 2e8, ReduceRate: 2e8,
		}),
		corral.NewMapReduce(2, "logs-b", corral.Profile{
			InputBytes: 1e9, ShuffleBytes: 2e9, OutputBytes: 1e8,
			MapTasks: 4, ReduceTasks: 4, MapRate: 2e8, ReduceRate: 2e8,
		}),
	}
	plan, err := corral.PlanBatch(cluster, jobs)
	if err != nil {
		panic(err)
	}
	a, b := plan.Assignments[1], plan.Assignments[2]
	fmt.Println("jobs isolated:", len(a.Racks) == 1 && len(b.Racks) == 1 && a.Racks[0] != b.Racks[0])
	// Output: jobs isolated: true
}
