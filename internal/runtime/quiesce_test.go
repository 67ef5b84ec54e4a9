package runtime

import (
	"testing"

	"corral/internal/invariants"
	"corral/internal/job"
	"corral/internal/trace"
)

// TestQuiesceTimeFoldsRepairTail pins the Makespan/QuiesceTime split: a
// machine failure after the last job completion leaves the cluster busy
// re-replicating, which must extend QuiesceTime but never Makespan (the
// paper's job-facing metric excludes repair traffic).
func TestQuiesceTimeFoldsRepairTail(t *testing.T) {
	topo := smallTopo()
	mk := func() []*job.Job { return []*job.Job{shuffleJob(1)} }

	clean := mustRun(t, Options{Topology: topo, BlockSize: 64e6, Seed: 61}, mk())
	//corralvet:ok floateq exact identity intended: with no repair tail QuiesceTime is the makespan itself
	if clean.QuiesceTime != clean.Makespan {
		t.Fatalf("no repairs ran, yet QuiesceTime %g != Makespan %g",
			clean.QuiesceTime, clean.Makespan)
	}

	// Kill a machine well after the job is done: its replicas are
	// re-replicated by flows that are pure repair tail.
	late := clean.Makespan + 5
	res := mustRun(t, Options{
		Topology: topo, BlockSize: 64e6, Seed: 61,
		Failures: []Failure{{At: late, Machine: 0}},
	}, mk())
	//corralvet:ok floateq exact identity intended: a post-completion failure must leave the makespan bit-identical
	if res.Makespan != clean.Makespan {
		t.Fatalf("post-completion failure changed Makespan: %g vs %g",
			res.Makespan, clean.Makespan)
	}
	if res.RepairBytes == 0 {
		t.Fatal("late failure triggered no re-replication; premise gone")
	}
	if res.QuiesceTime <= late {
		t.Fatalf("QuiesceTime %g does not cover the repair tail after the failure at %g",
			res.QuiesceTime, late)
	}
}

// TestSimEndFollowsLateRecovery: a machine that recovers long after the
// last job emits machine_up past the quiesce time. sim_end must be stamped
// no earlier than that, so the trace never runs backwards and a monitor
// reading it stays silent, while its value still reports the quiesce time.
func TestSimEndFollowsLateRecovery(t *testing.T) {
	topo := smallTopo()
	mon := invariants.NewMonitor(topo.Machines(), topo.SlotsPerMachine)
	tr := trace.New("drain")
	res := mustRun(t, Options{
		Topology: topo, BlockSize: 64e6, Seed: 61,
		Failures: []Failure{{At: 1, Machine: 0, Downtime: 1000}},
		Probe:    mon, Trace: tr,
	}, []*job.Job{shuffleJob(1)})
	if n := mon.ViolationCount(); n != 0 || !mon.Ended() {
		t.Fatalf("monitor: %d violations %v, ended %v; want 0, true", n, mon.Violations(), mon.Ended())
	}
	evs := tr.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].T < evs[i-1].T {
			t.Fatalf("event %d (%v at t=%g) precedes event %d (%v at t=%g)",
				i, evs[i].Kind, evs[i].T, i-1, evs[i-1].Kind, evs[i-1].T)
		}
	}
	last, prev := evs[len(evs)-1], evs[len(evs)-2]
	if last.Kind != trace.KSimEnd || prev.Kind != trace.KMachineUp || prev.T != 1001 {
		t.Fatalf("trace ends %v at t=%g, %v at t=%g; want machine_up at t=1001, then sim_end",
			prev.Kind, prev.T, last.Kind, last.T)
	}
	if res.QuiesceTime >= 1001 {
		t.Fatalf("QuiesceTime %g does not precede the recovery; premise gone", res.QuiesceTime)
	}
	//corralvet:ok floateq exact identity intended: sim_end carries QuiesceTime itself as its value
	if last.T != 1001 || last.Value != res.QuiesceTime {
		t.Fatalf("sim_end at t=%g value %g; want t=1001 (the recovery), value %g (QuiesceTime)",
			last.T, last.Value, res.QuiesceTime)
	}
}
