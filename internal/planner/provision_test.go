package planner

// Differential tests for the provisioning fast path: the parallel /
// incremental / group-compressed engine must pick exactly the widths of
// the legacy serial loop (provisionSerial below) — the same playbook that
// proved GroupedMaxMin bit-identical to MaxMinFair.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"corral/internal/job"
	"corral/internal/model"
	"corral/internal/topology"
	"corral/internal/workload"
)

// provisionSerial is the legacy engine, kept verbatim as the differential
// reference: one scheduler, every candidate evaluated in chain order with
// a full prioritization run, best kept under strict `<`.
func provisionSerial(in Input, resp []model.ResponseFunc, initF []float64) []int {
	R := in.Cluster.Racks
	rj := make([]int, len(in.Jobs))
	for i := range rj {
		rj[i] = 1
	}
	sched := newScheduler(in, resp)
	sched.initF = initF

	bestObj := sched.run(rj).objective(in.Objective)
	bestRj := append([]int(nil), rj...)
	for {
		// Widen the longest job that is not yet cluster-wide.
		longest, longestLat := -1, -1.0
		for i := range rj {
			if rj[i] >= R {
				continue
			}
			if l := resp[i].At(rj[i]); l > longestLat {
				longest, longestLat = i, l
			}
		}
		if longest == -1 {
			break
		}
		rj[longest]++
		if obj := sched.run(rj).objective(in.Objective); obj < bestObj {
			bestObj = obj
			copy(bestRj, rj)
		}
	}
	return bestRj
}

// checkFastMatchesSerial runs both provisioning engines on one planning
// input. Everything after provisioning is shared code, so equal widths
// mean DeepEqual plans.
func checkFastMatchesSerial(t *testing.T, name string, in Input, initF []float64) {
	t.Helper()
	resp := responseFuncs(t, in)
	fast, serial := provisionFast(in, resp, initF), provisionSerial(in, resp, initF)
	if !reflect.DeepEqual(fast, serial) {
		t.Fatalf("%s: fast widths differ from the serial reference\nfast:   %v\nserial: %v", name, fast, serial)
	}
}

// randomCommitments reserves a few random rack sets until random times.
func randomCommitments(rng *rand.Rand, R int, now float64) []Commitment {
	n := rng.Intn(4)
	cs := make([]Commitment, 0, n)
	for i := 0; i < n; i++ {
		racks := rng.Perm(R)[:rng.Intn(R)+1]
		cs = append(cs, Commitment{Racks: racks, Until: now + rng.Float64()*5000})
	}
	return cs
}

// TestProvisionFastMatchesSerial fuzzes the fast path against the legacy
// serial engine across seeded random workloads × {batch, online} ×
// {fresh plan, replan with commitments}, plus the scale suite's 2k cell
// (50 racks × 40 machines, 200 online W1 jobs at 1/8 scale over 100 s):
// the chosen widths must be identical.
func TestProvisionFastMatchesSerial(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		for _, obj := range []Objective{MinimizeMakespan, MinimizeAvgCompletion} {
			rng := rand.New(rand.NewSource(seed))
			jobs := randomJobs(rng, rng.Intn(40)+1)
			in := Input{Cluster: testClusterModel(), Jobs: jobs, Alpha: -1, Objective: obj}
			fast, err := New(in)
			if err != nil {
				t.Fatal(err)
			}
			checkPlanInvariants(t, in, fast)
			checkFastMatchesSerial(t, fmt.Sprintf("seed %d %s", seed, obj), in, nil)

			now := rng.Float64() * 2000
			initF, err := commitmentAvailability(in.Cluster.Racks, now, randomCommitments(rng, in.Cluster.Racks, now))
			if err != nil {
				t.Fatal(err)
			}
			re := in
			re.Jobs = clampArrivals(in.Jobs, now)
			checkFastMatchesSerial(t, fmt.Sprintf("seed %d %s replan", seed, obj), re, initF)
		}
	}

	cell := workload.W1(workload.Config{
		Seed: 1, Jobs: 200, Scale: 1.0 / 8, TaskScale: 1.0 / 8, ArrivalWindow: 100,
	})
	var planned []*job.Job
	for _, j := range cell {
		if !j.AdHoc {
			planned = append(planned, j)
		}
	}
	checkFastMatchesSerial(t, "2k scale cell", Input{
		Cluster: model.FromTopology(topology.Config{
			Racks: 50, MachinesPerRack: 40, SlotsPerMachine: 2,
			NICBandwidth: 10 * gbps, Oversubscription: 5,
		}),
		Jobs:      planned,
		Alpha:     -1,
		Objective: MinimizeAvgCompletion,
	}, nil)
}

// TestProvisionWorkerCountInvariance pins the determinism contract: the
// worker pool size changes wall-clock only, never the plan or the Work
// counters. The input spans several fixed-size blocks, so the pool really
// splits the chain.
func TestProvisionWorkerCountInvariance(t *testing.T) {
	defer SetWorkers(0)
	rng := rand.New(rand.NewSource(7))
	in := Input{
		Cluster:   testClusterModel(),
		Jobs:      randomJobs(rng, 120),
		Alpha:     -1,
		Objective: MinimizeAvgCompletion,
	}
	if C := len(in.Jobs)*(in.Cluster.Racks-1) + 1; C <= 2*blockCandidates {
		t.Fatalf("%d candidates fit in %d blocks; the test needs at least 3", C, (C+blockCandidates-1)/blockCandidates)
	}
	var workOne, workEight Work
	SetWorkers(1)
	in.Work = &workOne
	one, err := New(in)
	if err != nil {
		t.Fatal(err)
	}
	SetWorkers(8)
	in.Work = &workEight
	eight, err := New(in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, eight) {
		t.Fatal("plan differs between 1 and 8 provisioning workers")
	}
	if workOne != workEight {
		t.Fatalf("work counters differ between 1 and 8 workers: %+v vs %+v", workOne, workEight)
	}
	J, R := int64(len(in.Jobs)), int64(in.Cluster.Racks)
	if want := (Work{Chain: J * (R - 1), Candidates: J*(R-1) + 1}); workOne.Chain != want.Chain || workOne.Candidates != want.Candidates {
		t.Fatalf("work %+v, want chain %d and candidates %d", workOne, want.Chain, want.Candidates)
	}
	if p := workOne.PositionsReplayed; p <= 0 || p >= workOne.Candidates*J {
		t.Fatalf("%d positions replayed over %d candidates of %d jobs: want some, and fewer than full replays", p, workOne.Candidates, J)
	}
}

// TestProvisionSeedsDiffer is the anti-vacuity guard: if DeepEqual were
// trivially true (e.g. both engines returning empty plans), different
// seeds would agree too.
func TestProvisionSeedsDiffer(t *testing.T) {
	mk := func(seed int64) *Plan {
		rng := rand.New(rand.NewSource(seed))
		p, err := New(Input{Cluster: testClusterModel(), Jobs: randomJobs(rng, 20), Alpha: -1})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if reflect.DeepEqual(mk(1), mk(2)) {
		t.Fatal("plans for different seeds are identical; differential test is vacuous")
	}
}

// TestBuildChainMatchesSerialWidening replays both widening rules side by
// side: the heap-built chain must visit exactly the widths the serial
// scan visits, in order — including exact latency ties, where the scan
// keeps the lowest index, and a one-rack cluster, where nothing widens.
func TestBuildChainMatchesSerialWidening(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var ties []*job.Job
	for i := 0; i < 12; i++ {
		// Four distinct shapes, three jobs each: identical profiles give
		// bit-equal estimates at every width.
		ties = append(ties, mkJob(i+1, float64(100*(i%4+1)), 50, 10, 40, 10))
	}
	oneRack := testClusterModel()
	oneRack.Racks = 1
	for _, tc := range []struct {
		name string
		in   Input
	}{
		{"random", Input{Cluster: testClusterModel(), Jobs: randomJobs(rng, 15), Alpha: -1}},
		{"exact ties", Input{Cluster: testClusterModel(), Jobs: ties, Alpha: -1}},
		{"one rack", Input{Cluster: oneRack, Jobs: randomJobs(rng, 5), Alpha: -1}},
	} {
		J, R := len(tc.in.Jobs), tc.in.Cluster.Racks
		resp := responseFuncs(t, tc.in)
		chain := buildChain(resp, J, R)
		if want := J * (R - 1); len(chain) != want {
			t.Fatalf("%s: chain length %d, want %d", tc.name, len(chain), want)
		}
		rj := make([]int, J)
		for i := range rj {
			rj[i] = 1
		}
		for step, w := range chain {
			longest, longestLat := -1, -1.0
			for i := range rj {
				if rj[i] >= R {
					continue
				}
				if l := resp[i].At(rj[i]); l > longestLat {
					longest, longestLat = i, l
				}
			}
			if longest != w {
				t.Fatalf("%s step %d: chain widens job %d, serial rule widens %d", tc.name, step, w, longest)
			}
			rj[w]++
		}
	}
}

// TestObjectiveSuffixReplayBitIdentical walks whole chains with one
// evaluator, so nearly every objective resumes from a checkpoint, and
// requires each to equal the legacy scheduler's from-scratch replay bit
// for bit. It covers batch (where widen moves the job earlier) and online,
// with and without commitments, at J below, at and just above the
// checkpoint stride and far above it. A second walk after a rewinding
// reset checks that reset invalidates the checkpoints a reused evaluator
// left behind.
func TestObjectiveSuffixReplayBitIdentical(t *testing.T) {
	for _, J := range []int{ckStride - 1, ckStride, ckStride + 1, 6*ckStride + 5} {
		for _, obj := range []Objective{MinimizeMakespan, MinimizeAvgCompletion} {
			for _, committed := range []bool{false, true} {
				rng := rand.New(rand.NewSource(int64(J)))
				in := Input{Cluster: testClusterModel(), Jobs: randomJobs(rng, J), Alpha: -1, Objective: obj}
				var initF []float64
				if committed {
					now := rng.Float64() * 2000
					var err error
					if initF, err = commitmentAvailability(in.Cluster.Racks, now, randomCommitments(rng, in.Cluster.Racks, now)); err != nil {
						t.Fatal(err)
					}
					in.Jobs = clampArrivals(in.Jobs, now)
				}
				name := fmt.Sprintf("J=%d %s committed=%v", J, obj, committed)
				resp := responseFuncs(t, in)
				chain := buildChain(resp, J, in.Cluster.Racks)
				sched := newScheduler(in, resp)
				sched.initF = initF
				ev := newEvaluator(in, resp, groupsFromInitF(initF, in.Cluster.Racks))
				for pass := 0; pass < 2; pass++ {
					rj := make([]int, J)
					for i := range rj {
						rj[i] = 1
					}
					ev.reset(rj)
					for t0 := 0; t0 <= len(chain); t0++ {
						if t0 > 0 {
							ev.widen(chain[t0-1])
							rj[chain[t0-1]]++
						}
						got, want := ev.objective(), sched.run(rj).objective(obj)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s pass %d candidate %d: checkpointed objective %v, full replay %v", name, pass, t0, got, want)
						}
					}
					if full := int64(len(chain)+1) * int64(J); J > ckStride && ev.replayed >= full {
						t.Fatalf("%s: replayed %d positions, no fewer than %d full replays", name, ev.replayed, full)
					}
				}
			}
		}
	}
}

// TestEvaluatorSteadyStateZeroAlloc pins the per-candidate hot path
// (widen + objective) at zero allocations; corralvet's hotalloc check
// guards the same property statically via the //corral:hotpath markers.
func TestEvaluatorSteadyStateZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := Input{Cluster: testClusterModel(), Jobs: randomJobs(rng, 30), Alpha: -1, Objective: MinimizeAvgCompletion}
	J, R := len(in.Jobs), in.Cluster.Racks
	resp := responseFuncs(t, in)
	chain := buildChain(resp, J, R)

	ev := newEvaluator(in, resp, groupsFromInitF(nil, R))
	rj := make([]int, J)
	for i := range rj {
		rj[i] = 1
	}
	ev.reset(rj)
	sink := ev.objective()
	step := 0
	allocs := testing.AllocsPerRun(100, func() {
		ev.widen(chain[step])
		sink += ev.objective()
		step++
	})
	if step >= len(chain) {
		t.Fatalf("alloc run exhausted the %d-step chain", len(chain))
	}
	if allocs != 0 {
		t.Fatalf("evaluator steady state allocates %.1f objects per candidate, want 0", allocs)
	}
	_ = sink
}

// responseFuncs tabulates the test input's response functions the way
// planTwoPhase does.
func responseFuncs(t *testing.T, in Input) []model.ResponseFunc {
	t.Helper()
	alpha := in.Alpha
	if alpha < 0 {
		alpha = in.Cluster.DefaultAlpha()
	}
	resp := make([]model.ResponseFunc, len(in.Jobs))
	for i, j := range in.Jobs {
		if err := j.Validate(); err != nil {
			t.Fatal(err)
		}
		resp[i] = in.Cluster.Response(j, alpha)
	}
	return resp
}
