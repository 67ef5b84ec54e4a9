package experiments

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

// scaleTestCell keeps the scale tests inside unit-test budgets: 200
// machines is 5 racks of 40 — big enough to exercise the cross-rack fabric
// and the mid-flight snapshot, small enough for seconds of wall time.
const scaleTestCell = 200

// scaleSweepKey names one verified sweep: a seed at a sweep-worker count.
type scaleSweepKey struct {
	seed    int64
	workers int
}

// scaleSweeps caches the verified sweeps the TestScale* tests share. Each
// sweep already re-runs its cell (determinism) and resumes it from a
// mid-flight snapshot (resume), so the tests read its verdicts instead of
// re-running the suite: three sweeps in all — seed 1 at 1 and 8 workers,
// seed 42 at 8.
var scaleSweeps struct {
	sync.Mutex
	done map[scaleSweepKey]*ScaleReport
}

// scaleSweep returns the verified 200-machine sweep for key, running it on
// first use.
func scaleSweep(t *testing.T, key scaleSweepKey) *ScaleReport {
	t.Helper()
	scaleSweeps.Lock()
	defer scaleSweeps.Unlock()
	if rep, ok := scaleSweeps.done[key]; ok {
		return rep
	}
	defer SetSweepWorkers(0)
	SetSweepWorkers(key.workers)
	rep, err := RunScale(ScaleParams{Seed: key.seed, Machines: []int{scaleTestCell}})
	if err != nil {
		t.Fatalf("seed %d, %d workers: %v", key.seed, key.workers, err)
	}
	if scaleSweeps.done == nil {
		scaleSweeps.done = make(map[scaleSweepKey]*ScaleReport)
	}
	scaleSweeps.done[key] = rep
	return rep
}

var (
	seed1Serial   = scaleSweepKey{seed: 1, workers: 1}
	seed1Parallel = scaleSweepKey{seed: 1, workers: 8}
	seed42        = scaleSweepKey{seed: 42, workers: 8}
)

// TestScaleDeterminism mirrors TestBatchDeterminism for the scale suite:
// every cell's own built-in verification (same-seed rerun plus mid-flight
// snapshot/resume) must pass at both seeds, and the same seed must
// reproduce the full runtime.Result bit for bit across sweeps. Two seeds
// guard against seed-plumbing mistakes a single seed would hide.
func TestScaleDeterminism(t *testing.T) {
	for _, key := range []scaleSweepKey{seed1Serial, seed1Parallel, seed42} {
		for _, c := range scaleSweep(t, key).Cells {
			if !c.DeterminismOK || !c.ResumeOK {
				t.Errorf("seed %d, %d workers: cell %d machines failed verification: %s",
					key.seed, key.workers, c.Machines, c.Detail)
			}
		}
	}
	a, b := scaleSweep(t, seed1Serial).Cells[0], scaleSweep(t, seed1Parallel).Cells[0]
	if !reflect.DeepEqual(a.Result, b.Result) {
		t.Errorf("seed 1: %d machines not reproducible across sweeps:\n run1: %+v\n run2: %+v",
			a.Machines, summarize(a.Result), summarize(b.Result))
	}
}

// TestScaleSeedsActuallyDiffer guards the vacuous-pass direction: distinct
// seeds must change the workload, or TestScaleDeterminism proves nothing.
func TestScaleSeedsActuallyDiffer(t *testing.T) {
	a, b := scaleSweep(t, seed1Parallel), scaleSweep(t, seed42)
	if reflect.DeepEqual(a.Cells[0].Result, b.Cells[0].Result) {
		t.Error("seeds 1 and 42 produced identical scale results; the seed is not reaching the simulation")
	}
}

// TestScaleWorkerCountInvariance pins the sweep-pool contract for the
// report path: every semantic key (everything not wallclock_-prefixed) is
// identical whether the intra-cell verification fans out over 1 or 8
// workers.
func TestScaleWorkerCountInvariance(t *testing.T) {
	serial, parallel := scaleSweep(t, seed1Serial).report(), scaleSweep(t, seed1Parallel).report()
	if got := serial.Values["verification_failures"]; got != 0 {
		t.Fatalf("verification_failures = %v, want 0", got)
	}
	for _, k := range serial.Keys() {
		if strings.HasPrefix(k, "wallclock_") {
			continue
		}
		if serial.Values[k] != parallel.Values[k] {
			t.Errorf("key %q differs across worker counts: serial %v, parallel %v",
				k, serial.Values[k], parallel.Values[k])
		}
	}
	if len(serial.Keys()) != len(parallel.Keys()) {
		t.Errorf("key sets differ: serial %d keys, parallel %d", len(serial.Keys()), len(parallel.Keys()))
	}
}

// TestScaleParamErrors covers the sweep's input validation.
func TestScaleParamErrors(t *testing.T) {
	if _, err := RunScale(ScaleParams{Machines: []int{10}}); err == nil {
		t.Error("sub-rack cell accepted; want error")
	}
}

// TestScaleLadder pins the Size ladders CI and nightly reference.
func TestScaleLadder(t *testing.T) {
	for _, tc := range []struct {
		size Size
		want []int
	}{
		{SizeS, []int{2000}},
		{SizeM, []int{2000, 5000}},
		{SizeL, []int{2000, 5000, 10000}},
	} {
		if got := ScaleLadder(tc.size); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ScaleLadder(%v) = %v, want %v", tc.size, got, tc.want)
		}
	}
}
