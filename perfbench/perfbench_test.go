package main

import (
	"reflect"
	"strings"
	"testing"

	"corral/internal/experiments"
	"corral/internal/netsim"
	"corral/internal/planner"
	"corral/internal/runtime"
	"corral/internal/topology"
	"corral/internal/trace"
	"corral/internal/workload"
)

// smallInputs is a cell small enough for unit tests that still has
// cross-rack flows, machine failures and uplink faults.
func smallInputs(t *testing.T, seed int64) (Inputs, *planner.Plan) {
	t.Helper()
	topo := topology.Config{Racks: 4, MachinesPerRack: 5, SlotsPerMachine: 2, NICBandwidth: 10 * gbps, Oversubscription: 5}
	in := Inputs{
		Topo: topo,
		Jobs: workload.W1(workload.Config{Seed: seed, Jobs: 12, Scale: 1.0 / 20, TaskScale: 1.0 / 20, ArrivalWindow: 60}),
	}
	in.Failures, in.LinkFaults = experiments.GenChaosTrace(topo, seed, 0.5, 200)
	plan, err := in.plan()
	if err != nil {
		t.Fatal(err)
	}
	return in, plan
}

func simulate(t *testing.T, in Inputs, o runtime.Options) *runtime.Result {
	t.Helper()
	res, err := runtime.Run(o, workload.Clone(in.Jobs))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The layer wrappers of the traced pass must not change what they
// measure: the timing wrapper and the draining tracer leave the Result
// equal to a run with the bare default allocator.
func TestWrappersLeaveResultUnchanged(t *testing.T) {
	in, plan := smallInputs(t, 3)
	for _, s := range []Sim{{Label: "yarn-cs", Kind: runtime.YarnCS}, {Label: "corral-replan", Kind: runtime.Corral, Replan: true}} {
		opts := in.options(s, plan, 3)
		bare := simulate(t, in, opts)

		o := opts
		timed := newTimedPolicy()
		o.Network = timed
		if got := simulate(t, in, o); !reflect.DeepEqual(got, bare) {
			t.Errorf("%s: Result with the timing wrapper differs from the bare run", s.Label)
		}
		if len(timed.samples) == 0 || timed.total <= 0 {
			t.Errorf("%s: timing wrapper saw %d calls", s.Label, len(timed.samples))
		}

		// One tracer buffers the whole run; another is drained every 50
		// events. Both must count the same events and leave the Result as is.
		o = opts
		whole := trace.New("whole")
		o.Trace = whole
		if got := simulate(t, in, o); !reflect.DeepEqual(got, bare) {
			t.Errorf("%s: Result with a tracer differs from the bare run", s.Label)
		}
		var want traceTally
		want.drain(whole)

		o = opts
		tr := trace.New("drained")
		var got traceTally
		o.Trace = tr
		o.Network = &drainingPolicy{inner: netsim.NewIncrementalMaxMin(), tr: tr, tally: &got, limit: 50}
		if res := simulate(t, in, o); !reflect.DeepEqual(res, bare) {
			t.Errorf("%s: Result with the draining tracer differs from the bare run", s.Label)
		}
		if len(tr.Events()) >= want.total {
			t.Fatalf("%s: the tracer was never drained", s.Label)
		}
		got.drain(tr)
		if got != want {
			t.Errorf("%s: draining tracer counted %d events, whole buffer %d", s.Label, got.total, want.total)
		}
		if want.kinds[trace.KFlowStart] == 0 || want.kinds[trace.KFlowRate] == 0 {
			t.Errorf("%s: no flows traced", s.Label)
		}
	}
}

// Inputs are a pure function of the seed, and another seed gives other
// inputs.
func TestInputsArePureFunctionOfSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b, c := w.gen(7), w.gen(7), w.gen(8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two generations from seed 7 differ", w.Name)
		}
		if reflect.DeepEqual(a.Jobs, c.Jobs) {
			t.Errorf("%s: seeds 7 and 8 give the same jobs", w.Name)
		}
		if w.Name == "paper-faults" {
			if len(a.Failures) == 0 || len(a.LinkFaults) == 0 || len(a.Corruptions) != paperFaultsCorruptions {
				t.Errorf("%s: fault schedule has %d failures, %d link faults, %d corruptions",
					w.Name, len(a.Failures), len(a.LinkFaults), len(a.Corruptions))
			}
			if reflect.DeepEqual(a.Failures, c.Failures) || reflect.DeepEqual(a.Corruptions, c.Corruptions) {
				t.Errorf("%s: seeds 7 and 8 give the same faults", w.Name)
			}
		}
	}
	seeds := map[int64]bool{}
	for _, seed := range []int64{1, 2, 3} {
		for _, s := range setSeeds(seed, 16) {
			if seeds[s] {
				t.Fatalf("input-set seed %d repeats", s)
			}
			seeds[s] = true
		}
	}
}

// The output check accepts a real Result and rejects a missing, repeated
// or tampered job; the digest tells apart Results that differ in one bit.
func TestOutputCheck(t *testing.T) {
	in, plan := smallInputs(t, 5)
	res := simulate(t, in, in.options(Sim{Kind: runtime.Corral}, plan, 5))
	tally, err := checkResult(in.Jobs, res)
	if err != nil {
		t.Fatalf("check rejects a real Result: %v", err)
	}
	if tally.Submitted != len(in.Jobs) || tally.Completed+tally.Failed+tally.Shed != len(in.Jobs) {
		t.Fatalf("tally %+v for %d jobs", tally, len(in.Jobs))
	}
	want, err := digest([]*runtime.Result{res})
	if err != nil {
		t.Fatal(err)
	}

	tamper := map[string]func(r *runtime.Result){
		"missing job":  func(r *runtime.Result) { r.Jobs = r.Jobs[1:] },
		"repeated job": func(r *runtime.Result) { r.Jobs = append(r.Jobs, r.Jobs[0]) },
		"foreign job":  func(r *runtime.Result) { r.Jobs[0].ID = 1 << 30 },
		"late job":     func(r *runtime.Result) { r.Jobs[0].Completion = r.Makespan + 1 },
		"early job":    func(r *runtime.Result) { r.Jobs[0].Completion = r.Jobs[0].Arrival - 1 },
		"failed count": func(r *runtime.Result) { r.FailedJobs++ },
		"silent fail":  func(r *runtime.Result) { r.Jobs[0].Failed = true },
	}
	for name, f := range tamper {
		bad := copyResult(res)
		f(bad)
		if _, err := checkResult(in.Jobs, bad); err == nil {
			t.Errorf("%s: check accepts the tampered Result", name)
		}
	}

	bad := copyResult(res)
	bad.Jobs[len(bad.Jobs)-1].CrossRackBytes += 1e-6
	if _, err := checkResult(in.Jobs, bad); err != nil {
		t.Fatalf("check rejects a Result with a changed byte count: %v", err)
	}
	if got, _ := digest([]*runtime.Result{bad}); got == want {
		t.Error("digest does not see a changed byte count")
	}
	if got, _ := digest([]*runtime.Result{copyResult(res)}); got != want {
		t.Error("digest differs for an equal Result")
	}
}

func copyResult(r *runtime.Result) *runtime.Result {
	c := *r
	c.Jobs = append([]runtime.JobResult(nil), r.Jobs...)
	return &c
}

// quartiles agrees with Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 3.5, 5.25},
		{[]float64{1.5, 2.5}, 1.25, 2.0, 2.75},
		{[]float64{7, 1, 3, 2, 9, 4, 8}, 2, 4, 8},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.xs)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

// The result line carries exactly the keys the benchmark contract names.
func TestReportLastLine(t *testing.T) {
	r := &report{Correct: true, Attempted: 3}
	r.add("setup_s", 0.5, "s", "")
	var b strings.Builder
	if err := r.write(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	want := `{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}`
	if got := lines[len(lines)-1]; got != want {
		t.Errorf("last line %s, want %s", got, want)
	}
}
