package planner

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"corral/internal/job"
	"corral/internal/model"
)

const gbps = 1e9 / 8

func testClusterModel() model.Cluster {
	return model.Cluster{
		Racks:            7,
		MachinesPerRack:  30,
		SlotsPerMachine:  1,
		NICBandwidth:     10 * gbps,
		Oversubscription: 5,
	}
}

func mkJob(id int, gbIn, gbShuffle, gbOut float64, maps, reduces int) *job.Job {
	return job.MapReduce(id, "j", job.Profile{
		InputBytes:   gbIn * 1e9,
		ShuffleBytes: gbShuffle * 1e9,
		OutputBytes:  gbOut * 1e9,
		MapTasks:     maps,
		ReduceTasks:  reduces,
		MapRate:      1e9,
		ReduceRate:   1e9,
	})
}

func randomJobs(rng *rand.Rand, n int) []*job.Job {
	jobs := make([]*job.Job, n)
	for i := range jobs {
		jobs[i] = mkJob(i+1,
			float64(rng.Intn(500)+1),
			float64(rng.Intn(500)),
			float64(rng.Intn(100)+1),
			rng.Intn(300)+1,
			rng.Intn(100)+1)
		jobs[i].Arrival = rng.Float64() * 3600
	}
	return jobs
}

func TestEmptyPlan(t *testing.T) {
	p, err := New(Input{Cluster: testClusterModel()})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Assignments) != 0 || p.Makespan != 0 {
		t.Fatalf("empty plan = %+v", p)
	}
}

// TestInvalidJobRejected: every planning entry point returns an error —
// never a panic or a silently short plan — for an invalid job, a nil
// entry, duplicate IDs (jobLess needs them unique to be a strict total
// order; six jobs sharing ID 7 once yielded a one-assignment plan) and a
// NaN arrival (Replan's clamping must not launder it).
func TestInvalidJobRejected(t *testing.T) {
	bad := mkJob(1, 10, 10, 10, 10, 10)
	bad.Stages[0].Profile.MapTasks = 0
	nanArrival := mkJob(2, 10, 10, 10, 10, 10)
	nanArrival.Arrival = math.NaN()
	dup := make([]*job.Job, 6)
	for i := range dup {
		dup[i] = mkJob(7, 10, 10, 10, 10, 10)
	}
	cases := []struct {
		name string
		jobs []*job.Job
		want string
	}{
		{"invalid profile", []*job.Job{bad}, "MapTasks"},
		{"nil entry", []*job.Job{mkJob(1, 10, 10, 10, 10, 10), nil}, "entry 1 is nil"},
		{"duplicate IDs", dup, "duplicate ID 7"},
		{"NaN arrival", []*job.Job{nanArrival}, "Arrival"},
	}
	calls := map[string]func(Input) error{
		"New":               func(in Input) error { _, err := New(in); return err },
		"Replan":            func(in Input) error { _, err := Replan(in, 100, nil); return err },
		"ReplanIncremental": func(in Input) error { _, err := ReplanIncremental(in, 100, nil, nil); return err },
	}
	for _, tc := range cases {
		for name, call := range calls {
			err := call(Input{Cluster: testClusterModel(), Jobs: tc.jobs, Objective: MinimizeAvgCompletion})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s, %s: err = %v, want an error containing %q", tc.name, name, err, tc.want)
			}
		}
	}
}

func TestZeroRacksRejected(t *testing.T) {
	c := testClusterModel()
	c.Racks = 0
	if _, err := New(Input{Cluster: c}); err == nil {
		t.Fatal("zero-rack cluster not rejected")
	}
}

// checkPlanInvariants verifies structural properties every plan must have.
func checkPlanInvariants(t *testing.T, in Input, p *Plan) {
	t.Helper()
	R := in.Cluster.Racks
	if len(p.Assignments) != len(in.Jobs) {
		t.Fatalf("plan covers %d jobs, want %d", len(p.Assignments), len(in.Jobs))
	}
	prios := map[int]bool{}
	maxEnd := 0.0
	for _, j := range in.Jobs {
		a := p.Assignments[j.ID]
		if a == nil {
			t.Fatalf("job %d missing from plan", j.ID)
		}
		if len(a.Racks) < 1 || len(a.Racks) > R {
			t.Fatalf("job %d assigned %d racks", j.ID, len(a.Racks))
		}
		if !sort.IntsAreSorted(a.Racks) {
			t.Fatalf("job %d racks not sorted: %v", j.ID, a.Racks)
		}
		seen := map[int]bool{}
		for _, r := range a.Racks {
			if r < 0 || r >= R || seen[r] {
				t.Fatalf("job %d bad rack set %v", j.ID, a.Racks)
			}
			seen[r] = true
		}
		if in.Objective == MinimizeAvgCompletion && a.Start < j.Arrival-1e-9 {
			t.Fatalf("job %d starts %g before arrival %g", j.ID, a.Start, j.Arrival)
		}
		if a.EstLatency <= 0 {
			t.Fatalf("job %d est latency %g", j.ID, a.EstLatency)
		}
		if prios[a.Priority] {
			t.Fatalf("duplicate priority %d", a.Priority)
		}
		prios[a.Priority] = true
		if a.End() > maxEnd {
			maxEnd = a.End()
		}
	}
	if math.Abs(maxEnd-p.Makespan) > 1e-6*math.Max(1, p.Makespan) {
		t.Fatalf("makespan %g != max end %g", p.Makespan, maxEnd)
	}
}

func TestBatchPlanInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := Input{Cluster: testClusterModel(), Jobs: randomJobs(rng, 40), Alpha: -1}
	p, err := New(in)
	if err != nil {
		t.Fatal(err)
	}
	checkPlanInvariants(t, in, p)
}

func TestOnlinePlanInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	in := Input{
		Cluster:   testClusterModel(),
		Jobs:      randomJobs(rng, 40),
		Alpha:     -1,
		Objective: MinimizeAvgCompletion,
	}
	p, err := New(in)
	if err != nil {
		t.Fatal(err)
	}
	checkPlanInvariants(t, in, p)
	if p.AvgCompletion <= 0 {
		t.Fatalf("avg completion = %g", p.AvgCompletion)
	}
}

func TestTwoEqualJobsGetSeparateRacks(t *testing.T) {
	// Two identical one-rack-friendly jobs on a 2-rack cluster must be
	// spatially isolated: that is the core Corral behavior.
	c := testClusterModel()
	c.Racks = 2
	jobs := []*job.Job{
		mkJob(1, 50, 100, 10, 30, 30),
		mkJob(2, 50, 100, 10, 30, 30),
	}
	p, err := New(Input{Cluster: c, Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	a1, a2 := p.Assignments[1], p.Assignments[2]
	if len(a1.Racks) != 1 || len(a2.Racks) != 1 {
		t.Fatalf("rack counts = %d,%d, want 1,1", len(a1.Racks), len(a2.Racks))
	}
	if a1.Racks[0] == a2.Racks[0] {
		t.Fatal("equal jobs packed onto the same rack instead of isolated")
	}
	if a1.Start != 0 || a2.Start != 0 {
		t.Fatalf("starts = %g,%g, want both 0 (parallel)", a1.Start, a2.Start)
	}
}

func TestProvisioningWidensLongJob(t *testing.T) {
	// One huge job and several tiny ones: the huge job should receive
	// multiple racks.
	c := testClusterModel()
	jobs := []*job.Job{mkJob(1, 5000, 5000, 500, 2000, 2000)}
	for i := 2; i <= 6; i++ {
		jobs = append(jobs, mkJob(i, 1, 1, 1, 10, 5))
	}
	p, err := New(Input{Cluster: c, Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.Assignments[1].Racks); got < 2 {
		t.Fatalf("huge job allocated %d racks, want >= 2", got)
	}
}

func TestBatchPrioritiesFollowStartOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := Input{Cluster: testClusterModel(), Jobs: randomJobs(rng, 25)}
	p, err := New(in)
	if err != nil {
		t.Fatal(err)
	}
	byPrio := make([]*Assignment, len(in.Jobs))
	for _, a := range p.Assignments {
		byPrio[a.Priority] = a
	}
	for i := 1; i < len(byPrio); i++ {
		if byPrio[i].Start < byPrio[i-1].Start-1e-9 {
			t.Fatalf("priority %d starts at %g before priority %d at %g",
				i, byPrio[i].Start, i-1, byPrio[i-1].Start)
		}
	}
}

func TestOnlineRespectsArrivals(t *testing.T) {
	c := testClusterModel()
	j1 := mkJob(1, 10, 10, 5, 10, 5)
	j2 := mkJob(2, 10, 10, 5, 10, 5)
	j2.Arrival = 10000
	p, err := New(Input{Cluster: c, Jobs: []*job.Job{j1, j2}, Objective: MinimizeAvgCompletion})
	if err != nil {
		t.Fatal(err)
	}
	if p.Assignments[2].Start < 10000 {
		t.Fatalf("late job starts at %g, before its arrival", p.Assignments[2].Start)
	}
	if p.Assignments[1].Priority > p.Assignments[2].Priority {
		t.Fatal("earlier arrival got lower priority")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Plan {
		rng := rand.New(rand.NewSource(9))
		p, err := New(Input{Cluster: testClusterModel(), Jobs: randomJobs(rng, 30), Alpha: -1})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p1, p2 := run(), run()
	//corralvet:ok floateq exact identity intended: determinism: two identical runs must agree bit for bit
	if p1.Makespan != p2.Makespan {
		t.Fatalf("makespan differs across runs: %g vs %g", p1.Makespan, p2.Makespan)
	}
	for id, a1 := range p1.Assignments {
		a2 := p2.Assignments[id]
		//corralvet:ok floateq exact identity intended: determinism: two identical runs must agree bit for bit
		if a1.Start != a2.Start || a1.Priority != a2.Priority || len(a1.Racks) != len(a2.Racks) {
			t.Fatalf("job %d assignment differs: %+v vs %+v", id, a1, a2)
		}
	}
}

// naivePrioritize is a direct transcription of Fig 4 used as a reference
// implementation to validate the O(R)-merge optimized scheduler.
func naivePrioritize(in Input, resp []model.ResponseFunc, rj []int) (makespan, avg float64) {
	J := len(in.Jobs)
	order := make([]int, J)
	for i := range order {
		order[i] = i
	}
	batchLess := func(a, b int) bool {
		if rj[a] != rj[b] {
			return rj[a] > rj[b]
		}
		la, lb := resp[a].At(rj[a]), resp[b].At(rj[b])
		if la != lb {
			return la > lb
		}
		return in.Jobs[a].ID < in.Jobs[b].ID
	}
	if in.Objective == MinimizeAvgCompletion {
		sort.SliceStable(order, func(x, y int) bool {
			a, b := order[x], order[y]
			if in.Jobs[a].Arrival != in.Jobs[b].Arrival {
				return in.Jobs[a].Arrival < in.Jobs[b].Arrival
			}
			return batchLess(a, b)
		})
	} else {
		sort.SliceStable(order, func(x, y int) bool { return batchLess(order[x], order[y]) })
	}
	F := make([]float64, in.Cluster.Racks)
	sum := 0.0
	for _, idx := range order {
		// Select rj[idx] racks with smallest (F, id).
		ids := make([]int, len(F))
		for i := range ids {
			ids[i] = i
		}
		sort.SliceStable(ids, func(a, b int) bool {
			if F[ids[a]] != F[ids[b]] {
				return F[ids[a]] < F[ids[b]]
			}
			return ids[a] < ids[b]
		})
		sel := ids[:rj[idx]]
		start := 0.0
		for _, r := range sel {
			if F[r] > start {
				start = F[r]
			}
		}
		arr := in.Jobs[idx].Arrival
		if in.Objective == MinimizeMakespan {
			arr = 0
		}
		if arr > start {
			start = arr
		}
		finish := start + resp[idx].At(rj[idx])
		for _, r := range sel {
			F[r] = finish
		}
		if finish > makespan {
			makespan = finish
		}
		sum += finish - arr
	}
	return makespan, sum / float64(J)
}

// Property: the optimized scheduler matches the naive Fig 4 transcription
// for random job sets, rack counts and both objectives.
func TestQuickOptimizedMatchesNaive(t *testing.T) {
	f := func(seed int64, nJobs uint8, online bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nJobs%30) + 1
		in := Input{Cluster: testClusterModel(), Jobs: randomJobs(rng, n)}
		if online {
			in.Objective = MinimizeAvgCompletion
		}
		resp := make([]model.ResponseFunc, n)
		for i, j := range in.Jobs {
			resp[i] = in.Cluster.Response(j, in.Cluster.DefaultAlpha())
		}
		rj := make([]int, n)
		for i := range rj {
			rj[i] = rng.Intn(in.Cluster.Racks) + 1
		}
		s := newScheduler(in, resp)
		got := s.run(rj)
		wantMakespan, wantAvg := naivePrioritize(in, resp, rj)
		return math.Abs(got.makespan-wantMakespan) < 1e-6 &&
			math.Abs(got.avgCompletion-wantAvg) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: widening never runs a job on zero racks, and the chosen plan's
// objective is no worse than the all-ones starting allocation.
func TestQuickProvisioningNeverWorseThanOneRackEach(t *testing.T) {
	f := func(seed int64, nJobs uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nJobs%20) + 2
		in := Input{Cluster: testClusterModel(), Jobs: randomJobs(rng, n), Alpha: -1}
		p, err := New(in)
		if err != nil {
			return false
		}
		resp := make([]model.ResponseFunc, n)
		for i, j := range in.Jobs {
			resp[i] = in.Cluster.Response(j, in.Cluster.DefaultAlpha())
		}
		ones := make([]int, n)
		for i := range ones {
			ones[i] = 1
		}
		s := newScheduler(in, resp)
		base := s.run(ones)
		return p.Makespan <= base.makespan+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDAGJobsPlan(t *testing.T) {
	// TPC-H-like DAG jobs flow through the planner like MapReduce jobs.
	p := validProfileForDAG()
	dag := &job.Job{ID: 1, Name: "q", Recurring: true, Stages: []job.Stage{
		{Name: "scan1", Profile: p},
		{Name: "scan2", Profile: p},
		{Name: "join", Profile: p, Upstream: []int{0, 1}},
		{Name: "agg", Profile: p, Upstream: []int{2}},
	}}
	plan, err := New(Input{Cluster: testClusterModel(), Jobs: []*job.Job{dag}, Alpha: -1})
	if err != nil {
		t.Fatal(err)
	}
	a := plan.Assignments[1]
	if len(a.Racks) < 1 {
		t.Fatal("DAG job got no racks")
	}
	if a.EstLatency <= 0 {
		t.Fatal("DAG job got no latency estimate")
	}
}

func validProfileForDAG() job.Profile {
	return job.Profile{
		InputBytes: 5e9, ShuffleBytes: 1e9, OutputBytes: 5e8,
		MapTasks: 20, ReduceTasks: 5, MapRate: 1e8, ReduceRate: 1e8,
	}
}

func TestGiantJobsGetWideAllocations(t *testing.T) {
	// A W2-style giant among tiny jobs should receive (nearly) the whole
	// cluster while tiny jobs are packed.
	c := testClusterModel()
	jobs := []*job.Job{mkJob(1, 5500, 9900, 1100, 2000, 1000)}
	for i := 2; i <= 40; i++ {
		jobs = append(jobs, mkJob(i, 0.2, 0.075, 0.05, 1, 1))
	}
	plan, err := New(Input{Cluster: c, Jobs: jobs, Alpha: -1})
	if err != nil {
		t.Fatal(err)
	}
	giant := plan.Assignments[1]
	if len(giant.Racks) < 3 {
		t.Fatalf("giant allocated %d racks, want >= 3 (paper gives W2 giants 3 of 7)", len(giant.Racks))
	}
	for i := 2; i <= 40; i++ {
		if len(plan.Assignments[i].Racks) != 1 {
			t.Fatalf("tiny job %d spread over %d racks", i, len(plan.Assignments[i].Racks))
		}
	}
}

func TestPlanEstimatesConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	in := Input{Cluster: testClusterModel(), Jobs: randomJobs(rng, 20), Alpha: -1}
	p, err := New(in)
	if err != nil {
		t.Fatal(err)
	}
	// AvgCompletion (batch: measured from 0) must be <= makespan and > 0.
	if p.AvgCompletion <= 0 || p.AvgCompletion > p.Makespan {
		t.Fatalf("avg completion %g vs makespan %g", p.AvgCompletion, p.Makespan)
	}
	//corralvet:ok floateq exact identity intended: the batch objective is the makespan itself
	if p.ObjectiveValue() != p.Makespan {
		t.Fatal("batch objective should be makespan")
	}
}
