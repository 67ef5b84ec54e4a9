package runtime

import (
	"math"
	"testing"

	"corral/internal/job"
	"corral/internal/model"
	"corral/internal/netsim"
	"corral/internal/planner"
	"corral/internal/topology"
)

const gbps = 1e9 / 8

// smallTopo: 4 racks x 4 machines x 2 slots, 10 Gbps NICs, 5:1.
func smallTopo() topology.Config {
	return topology.Config{
		Racks:            4,
		MachinesPerRack:  4,
		SlotsPerMachine:  2,
		NICBandwidth:     10 * gbps,
		Oversubscription: 5,
	}
}

// shuffleJob is a one-rack-friendly, shuffle-heavy MapReduce job.
func shuffleJob(id int) *job.Job {
	return job.MapReduce(id, "shuffle", job.Profile{
		InputBytes:   512e6,
		ShuffleBytes: 2e9,
		OutputBytes:  100e6,
		MapTasks:     8,
		ReduceTasks:  8,
		MapRate:      2e8,
		ReduceRate:   2e8,
	})
}

func planFor(t *testing.T, topo topology.Config, jobs []*job.Job, obj planner.Objective) *planner.Plan {
	t.Helper()
	p, err := planner.New(planner.Input{
		Cluster:   model.FromTopology(topo),
		Jobs:      jobs,
		Alpha:     -1,
		Objective: obj,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustRun(t *testing.T, opts Options, jobs []*job.Job) *Result {
	t.Helper()
	res, err := Run(opts, jobs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunRejectsNegativeArrival: a job arriving before time zero is an
// input error, not an event scheduled in the simulator's past.
func TestRunRejectsNegativeArrival(t *testing.T) {
	j := shuffleJob(1)
	j.Arrival = -46.47
	if _, err := Run(Options{Topology: smallTopo(), BlockSize: 64e6, Seed: 1}, []*job.Job{j}); err == nil {
		t.Fatal("Run accepted a job with a negative arrival")
	}
}

func TestSingleJobCompletes(t *testing.T) {
	jobs := []*job.Job{shuffleJob(1)}
	res := mustRun(t, Options{Topology: smallTopo(), BlockSize: 64e6, Seed: 1}, jobs)
	if len(res.Jobs) != 1 {
		t.Fatalf("results for %d jobs, want 1", len(res.Jobs))
	}
	jr := res.Jobs[0]
	if jr.CompletionTime <= 0 {
		t.Fatalf("completion time = %g", jr.CompletionTime)
	}
	// Sanity upper bound: the whole job moves ~2.6 GB over >= 1 Gbps
	// effective paths with compute ~ (64e6/2e8)s per task.
	if jr.CompletionTime > 300 {
		t.Fatalf("completion time = %g, implausibly slow", jr.CompletionTime)
	}
	if len(jr.ReduceSeconds) != 8 {
		t.Fatalf("reduce samples = %d, want 8", len(jr.ReduceSeconds))
	}
	if jr.TaskSeconds <= 0 {
		t.Fatal("no task seconds recorded")
	}
	//corralvet:ok floateq exact identity intended: a single job's completion time is the makespan itself
	if res.Makespan != jr.Completion {
		t.Fatalf("makespan %g != single job completion %g", res.Makespan, jr.Completion)
	}
}

func TestCorralRequiresPlan(t *testing.T) {
	if _, err := Run(Options{Topology: smallTopo(), Scheduler: Corral}, nil); err == nil {
		t.Fatal("Corral without plan not rejected")
	}
	if _, err := Run(Options{Topology: smallTopo(), Scheduler: LocalShuffle}, nil); err == nil {
		t.Fatal("LocalShuffle without plan not rejected")
	}
}

func TestCorralConstrainsRacks(t *testing.T) {
	topo := smallTopo()
	jobs := []*job.Job{shuffleJob(1), shuffleJob(2), shuffleJob(3), shuffleJob(4)}
	plan := planFor(t, topo, jobs, planner.MinimizeMakespan)
	res := mustRun(t, Options{
		Topology: topo, Scheduler: Corral, Plan: plan, BlockSize: 64e6, Seed: 2,
	}, jobs)
	for _, jr := range res.Jobs {
		a := plan.Assignments[jr.ID]
		if jr.RacksUsed > len(a.Racks) {
			t.Fatalf("job %d touched %d racks, plan allows %d", jr.ID, jr.RacksUsed, len(a.Racks))
		}
	}
}

func TestCorralBeatsYarnCSOnShuffleHeavyBatch(t *testing.T) {
	// The paper's headline: joint data+task placement cuts makespan and
	// cross-rack bytes (Fig 6, Fig 7a).
	topo := smallTopo()
	var jobs []*job.Job
	for i := 1; i <= 4; i++ {
		jobs = append(jobs, shuffleJob(i))
	}
	plan := planFor(t, topo, jobs, planner.MinimizeMakespan)

	yarn := mustRun(t, Options{Topology: topo, Scheduler: YarnCS, BlockSize: 64e6, Seed: 3}, jobs)
	corral := mustRun(t, Options{Topology: topo, Scheduler: Corral, Plan: plan, BlockSize: 64e6, Seed: 3}, jobs)

	if corral.Makespan >= yarn.Makespan {
		t.Fatalf("Corral makespan %g >= Yarn-CS %g", corral.Makespan, yarn.Makespan)
	}
	if corral.CrossRackBytes >= yarn.CrossRackBytes {
		t.Fatalf("Corral cross-rack %g >= Yarn-CS %g", corral.CrossRackBytes, yarn.CrossRackBytes)
	}
}

func TestLocalShuffleBetween(t *testing.T) {
	// LocalShuffle shares Corral's task placement but not its data
	// placement, so its cross-rack usage must be at least Corral's.
	topo := smallTopo()
	var jobs []*job.Job
	for i := 1; i <= 4; i++ {
		jobs = append(jobs, shuffleJob(i))
	}
	plan := planFor(t, topo, jobs, planner.MinimizeMakespan)
	corral := mustRun(t, Options{Topology: topo, Scheduler: Corral, Plan: plan, BlockSize: 64e6, Seed: 4}, jobs)
	local := mustRun(t, Options{Topology: topo, Scheduler: LocalShuffle, Plan: plan, BlockSize: 64e6, Seed: 4}, jobs)
	if local.CrossRackBytes < corral.CrossRackBytes {
		t.Fatalf("LocalShuffle cross-rack %g < Corral %g", local.CrossRackBytes, corral.CrossRackBytes)
	}
}

func TestShuffleWatcherRuns(t *testing.T) {
	topo := smallTopo()
	var jobs []*job.Job
	for i := 1; i <= 4; i++ {
		jobs = append(jobs, shuffleJob(i))
	}
	res := mustRun(t, Options{Topology: topo, Scheduler: ShuffleWatcher, BlockSize: 64e6, Seed: 5}, jobs)
	for _, jr := range res.Jobs {
		if jr.CompletionTime <= 0 {
			t.Fatalf("job %d did not complete", jr.ID)
		}
		// ShuffleWatcher confines each of these one-rack jobs to one rack.
		if jr.RacksUsed > 1 {
			t.Fatalf("job %d used %d racks under ShuffleWatcher", jr.ID, jr.RacksUsed)
		}
	}
}

func TestDAGJobExecutes(t *testing.T) {
	p := job.Profile{
		InputBytes: 256e6, ShuffleBytes: 256e6, OutputBytes: 64e6,
		MapTasks: 4, ReduceTasks: 4, MapRate: 2e8, ReduceRate: 2e8,
	}
	dag := &job.Job{ID: 1, Name: "dag", Recurring: true, Stages: []job.Stage{
		{Name: "extract", Profile: p},
		{Name: "left", Profile: p, Upstream: []int{0}},
		{Name: "right", Profile: p, Upstream: []int{0}},
		{Name: "join", Profile: p, Upstream: []int{1, 2}},
	}}
	res := mustRun(t, Options{Topology: smallTopo(), BlockSize: 64e6, Seed: 6}, []*job.Job{dag})
	jr := res.Jobs[0]
	if jr.CompletionTime <= 0 {
		t.Fatal("DAG did not complete")
	}
	// All four stages ran reducers.
	if len(jr.ReduceSeconds) != 16 {
		t.Fatalf("reduce samples = %d, want 16", len(jr.ReduceSeconds))
	}
}

func TestMapOnlyJob(t *testing.T) {
	j := job.MapReduce(1, "maponly", job.Profile{
		InputBytes: 256e6, MapTasks: 4, MapRate: 2e8,
	})
	res := mustRun(t, Options{Topology: smallTopo(), BlockSize: 64e6, Seed: 7}, []*job.Job{j})
	if res.Jobs[0].CompletionTime <= 0 {
		t.Fatal("map-only job did not complete")
	}
	if len(res.Jobs[0].ReduceSeconds) != 0 {
		t.Fatal("map-only job recorded reduce tasks")
	}
}

func TestOnlineArrivals(t *testing.T) {
	j1, j2 := shuffleJob(1), shuffleJob(2)
	j2.Arrival = 500
	res := mustRun(t, Options{Topology: smallTopo(), BlockSize: 64e6, Seed: 8}, []*job.Job{j1, j2})
	for _, jr := range res.Jobs {
		if jr.Completion < jr.Arrival {
			t.Fatalf("job %d completed before arrival", jr.ID)
		}
	}
	var late JobResult
	for _, jr := range res.Jobs {
		if jr.ID == 2 {
			late = jr
		}
	}
	if late.Completion < 500 {
		t.Fatal("late job ran before its arrival")
	}
}

func TestAdHocJobsRunUnderCorral(t *testing.T) {
	topo := smallTopo()
	planned := []*job.Job{shuffleJob(1), shuffleJob(2)}
	adhoc := shuffleJob(3)
	adhoc.AdHoc = true
	adhoc.Recurring = false
	all := append(append([]*job.Job{}, planned...), adhoc)
	plan := planFor(t, topo, planned, planner.MinimizeMakespan)
	res := mustRun(t, Options{Topology: topo, Scheduler: Corral, Plan: plan, BlockSize: 64e6, Seed: 9}, all)
	for _, jr := range res.Jobs {
		if jr.CompletionTime <= 0 {
			t.Fatalf("job %d (adhoc=%v) did not complete", jr.ID, jr.AdHoc)
		}
	}
}

func TestFailureFallbackReleasesConstraints(t *testing.T) {
	topo := smallTopo()
	jobs := []*job.Job{shuffleJob(1)}
	plan := planFor(t, topo, jobs, planner.MinimizeMakespan)
	a := plan.Assignments[1]
	if len(a.Racks) != 1 {
		t.Skipf("plan gave %d racks; test wants a 1-rack assignment", len(a.Racks))
	}
	// Kill 3 of 4 machines in the assigned rack: majority dead -> fallback.
	cl := topology.MustNew(topo)
	mlo, _ := cl.MachinesInRack(a.Racks[0])
	failed := []int{mlo, mlo + 1, mlo + 2}
	res := mustRun(t, Options{
		Topology: topo, Scheduler: Corral, Plan: plan, BlockSize: 64e6,
		Seed: 10, FailedMachines: failed,
	}, jobs)
	if res.Jobs[0].CompletionTime <= 0 {
		t.Fatal("job did not complete after rack failure")
	}
	// Fallback means the job may use other racks.
	if res.Jobs[0].RacksUsed < 2 {
		t.Fatalf("job stayed on %d rack(s) despite majority failure", res.Jobs[0].RacksUsed)
	}
}

func TestFailedMachineValidation(t *testing.T) {
	if _, err := Run(Options{Topology: smallTopo(), FailedMachines: []int{999}}, nil); err == nil {
		t.Fatal("out-of-range failed machine not rejected")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Result {
		topo := smallTopo()
		var jobs []*job.Job
		for i := 1; i <= 6; i++ {
			j := shuffleJob(i)
			j.Arrival = float64(i) * 10
			jobs = append(jobs, j)
		}
		plan := planFor(t, topo, jobs, planner.MinimizeAvgCompletion)
		return mustRun(t, Options{Topology: topo, Scheduler: Corral, Plan: plan, BlockSize: 64e6, Seed: 11}, jobs)
	}
	a, b := run(), run()
	//corralvet:ok floateq exact identity intended: determinism: two identical runs must agree bit for bit
	if a.Makespan != b.Makespan || a.CrossRackBytes != b.CrossRackBytes {
		t.Fatalf("nondeterministic: (%g,%g) vs (%g,%g)",
			a.Makespan, a.CrossRackBytes, b.Makespan, b.CrossRackBytes)
	}
	for i := range a.Jobs {
		//corralvet:ok floateq exact identity intended: determinism: two identical runs must agree bit for bit
		if a.Jobs[i].Completion != b.Jobs[i].Completion {
			t.Fatalf("job %d completion differs", a.Jobs[i].ID)
		}
	}
}

func TestVarysPolicyRuns(t *testing.T) {
	topo := smallTopo()
	var jobs []*job.Job
	for i := 1; i <= 4; i++ {
		jobs = append(jobs, shuffleJob(i))
	}
	res := mustRun(t, Options{
		Topology: topo, Scheduler: YarnCS, Network: netsim.Varys{},
		BlockSize: 64e6, Seed: 12,
	}, jobs)
	if res.Makespan <= 0 {
		t.Fatal("Varys run produced no makespan")
	}
}

func TestCorralSingleRackJobCrossRackOnlyFromWrites(t *testing.T) {
	// A planned 1-rack job reads locally and shuffles in-rack; the only
	// cross-rack bytes should come from the replicated output write.
	topo := smallTopo()
	jobs := []*job.Job{shuffleJob(1)}
	plan := planFor(t, topo, jobs, planner.MinimizeMakespan)
	if len(plan.Assignments[1].Racks) != 1 {
		t.Skip("plan spread the job; premise gone")
	}
	res := mustRun(t, Options{Topology: topo, Scheduler: Corral, Plan: plan, BlockSize: 64e6, Seed: 13}, jobs)
	jr := res.Jobs[0]
	// Output = 100e6; one cross-rack replica copy.
	if jr.CrossRackBytes > 150e6 {
		t.Fatalf("cross-rack bytes = %g, want ~100e6 (writes only)", jr.CrossRackBytes)
	}
	if jr.CrossRackBytes < 50e6 {
		t.Fatalf("cross-rack bytes = %g, output replication missing?", jr.CrossRackBytes)
	}
}

func TestBackgroundTrafficHurtsYarnMoreThanCorral(t *testing.T) {
	// Fig 12's direction: as background core traffic rises, Corral's edge
	// over Yarn-CS grows (its jobs mostly avoid the core).
	gap := func(bg float64) float64 {
		topo := smallTopo()
		topo.BackgroundPerRack = bg
		var jobs []*job.Job
		for i := 1; i <= 4; i++ {
			jobs = append(jobs, shuffleJob(i))
		}
		plan := planFor(t, topo, jobs, planner.MinimizeMakespan)
		y := mustRun(t, Options{Topology: topo, Scheduler: YarnCS, BlockSize: 64e6, Seed: 14}, jobs)
		c := mustRun(t, Options{Topology: topo, Scheduler: Corral, Plan: plan, BlockSize: 64e6, Seed: 14}, jobs)
		return y.Makespan - c.Makespan
	}
	low := gap(0)
	high := gap(4 * gbps) // half the 8 Gbps uplink
	if high <= low {
		t.Fatalf("Corral's absolute edge did not grow with background traffic: %g -> %g", low, high)
	}
}

func TestResultAggregates(t *testing.T) {
	topo := smallTopo()
	jobs := []*job.Job{shuffleJob(1), shuffleJob(2)}
	res := mustRun(t, Options{Topology: topo, BlockSize: 64e6, Seed: 15}, jobs)
	if got := res.AvgCompletionTime(); got <= 0 {
		t.Fatalf("avg completion = %g", got)
	}
	ct := res.CompletionTimes()
	if len(ct) != 2 || ct[0] > ct[1] {
		t.Fatalf("CompletionTimes = %v", ct)
	}
	if math.IsNaN(res.InputRackCoV) {
		t.Fatal("InputRackCoV is NaN")
	}
}
