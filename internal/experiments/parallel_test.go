package experiments

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"corral/internal/netsim"
	"corral/internal/planner"
	"corral/internal/runtime"
	"corral/internal/workload"
)

func TestParallelForRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 4} {
		SetSweepWorkers(workers)
		hits := make([]int32, 100)
		if err := parallelFor(len(hits), func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: unexpected error: %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
	SetSweepWorkers(0)
	if err := parallelFor(0, func(int) error { t.Fatal("fn called for n=0"); return nil }); err != nil {
		t.Fatalf("n=0: unexpected error: %v", err)
	}
}

func TestParallelForReturnsLowestIndexError(t *testing.T) {
	defer SetSweepWorkers(0)
	errLow, errHigh := errors.New("low"), errors.New("high")
	for _, workers := range []int{1, 8} {
		SetSweepWorkers(workers)
		err := parallelFor(50, func(i int) error {
			switch i {
			case 7:
				return errLow
			case 31:
				return errHigh
			}
			return nil
		})
		if err != errLow {
			t.Fatalf("workers=%d: got error %v, want the lowest-index error %v", workers, err, errLow)
		}
	}
}

// TestSweepWorkerCountInvariance is the core parallel-sweep determinism
// gate: the same chaos sweep must produce a DeepEqual report whether the
// cells run serially or across a wide worker pool — worker scheduling must
// never leak into Results.
func TestSweepWorkerCountInvariance(t *testing.T) {
	defer SetSweepWorkers(0)
	p := ChaosParams{Size: SizeS, Seed: 7, Intensities: []float64{0.2, 0.5}}
	SetSweepWorkers(1)
	serial, err := RunChaos(p)
	if err != nil {
		t.Fatalf("serial sweep: %v", err)
	}
	SetSweepWorkers(8)
	parallel, err := RunChaos(p)
	if err != nil {
		t.Fatalf("parallel sweep: %v", err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("chaos sweep results differ between 1 and 8 workers")
	}
}

// TestParallelSweepTwoSeedReplay replays a parallel chaos sweep twice per
// seed with the full worker pool: reports must be bit-identical per seed
// and differ across seeds (anti-vacuity).
func TestParallelSweepTwoSeedReplay(t *testing.T) {
	defer SetSweepWorkers(0)
	SetSweepWorkers(8)
	reports := map[int64]*ChaosReport{}
	for _, seed := range []int64{3, 9} {
		p := ChaosParams{Size: SizeS, Seed: seed, Intensities: []float64{0.3}}
		first, err := RunChaos(p)
		if err != nil {
			t.Fatalf("seed %d: first run: %v", seed, err)
		}
		second, err := RunChaos(p)
		if err != nil {
			t.Fatalf("seed %d: second run: %v", seed, err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Errorf("seed %d: parallel chaos sweep not bit-identical across replays", seed)
		}
		reports[seed] = first
	}
	if reflect.DeepEqual(reports[int64(3)], reports[int64(9)]) {
		t.Error("seeds 3 and 9 produced identical parallel sweeps; seed plumbing is broken")
	}
}

// TestGroupedPolicyResultsIdentical is the runtime-level half of the
// allocator differential: a full simulated execution (placement, shuffle,
// DFS writes, accounting) must produce a DeepEqual Result under the
// reference MaxMinFair, the grouped allocator and the default (nil
// Network: the incremental allocator).
func TestGroupedPolicyResultsIdentical(t *testing.T) {
	prof := profileFor(SizeS)
	topo := prof.withBackground(prof.bgFrac)
	jobs := genWorkload("W1", prof, 11, 0)
	plan, err := planJobs(topo, jobs, planner.MinimizeMakespan)
	if err != nil {
		t.Fatal(err)
	}
	run := func(name string, p netsim.Policy) *runtime.Result {
		res, err := runtime.Run(runtime.Options{
			Topology: topo, Scheduler: runtime.Corral, Plan: plan, Seed: 11,
			Network: p,
		}, workload.Clone(jobs))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return res
	}
	ref := run("maxmin", netsim.MaxMinFair{})
	if got := run("grouped", netsim.NewGroupedMaxMin()); !reflect.DeepEqual(ref, got) {
		t.Errorf("results diverge between MaxMinFair and GroupedMaxMin:\n maxmin:  %+v\n grouped: %+v", ref, got)
	}
	if got := run("default", nil); !reflect.DeepEqual(ref, got) {
		t.Errorf("results diverge between MaxMinFair and the default allocator:\n maxmin:  %+v\n default: %+v", ref, got)
	}
}
