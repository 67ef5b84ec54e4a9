package main

import (
	"fmt"
	"reflect"
	goruntime "runtime"
	"slices"
	"time"

	"corral/internal/invariants"
	"corral/internal/netsim"
	"corral/internal/planner"
	"corral/internal/runtime"
	"corral/internal/snapshot"
	"corral/internal/trace"
	"corral/internal/workload"
)

// timedPolicy is the netsim layer's call-timing wrapper: the default
// incremental max-min allocator, with every Allocate call counted and
// timed from outside.
type timedPolicy struct {
	inner   *netsim.IncrementalMaxMin
	flows   int
	total   time.Duration
	samples []time.Duration // one per call
}

func newTimedPolicy() *timedPolicy {
	return &timedPolicy{inner: netsim.NewIncrementalMaxMin()}
}

func (p *timedPolicy) Allocate(flows []*netsim.Flow, caps []float64, scratch []float64) {
	start := time.Now()
	p.inner.Allocate(flows, caps, scratch)
	d := time.Since(start)
	p.total += d
	p.flows += len(flows)
	p.samples = append(p.samples, d)
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

// drainingPolicy passes allocation through to the default allocator and,
// before a call, tallies and empties the run's tracer buffer once it holds
// limit events. A Tracer buffers every event of a run in memory, and
// paper-faults emits over ten million; draining keeps the traced run's
// memory bounded without changing what it emits.
type drainingPolicy struct {
	inner *netsim.IncrementalMaxMin
	tr    *trace.Tracer
	tally *traceTally
	limit int
}

// drainEvents is the traced pass's buffer limit: 64Ki events, ~7 MB.
const drainEvents = 1 << 16

func (p *drainingPolicy) Allocate(flows []*netsim.Flow, caps []float64, scratch []float64) {
	if len(p.tr.Events()) >= p.limit {
		p.tally.drain(p.tr)
	}
	p.inner.Allocate(flows, caps, scratch)
}

func (p *drainingPolicy) Name() string { return p.inner.Name() }

// traceTally counts trace events by kind.
type traceTally struct {
	kinds     [256]int
	failovers int
	total     int
}

// drain counts the tracer's buffered events and empties its buffer.
func (t *traceTally) drain(tr *trace.Tracer) {
	for _, e := range tr.Events() {
		t.kinds[e.Kind]++
		if e.Kind == trace.KBlockRead && e.Detail == "failover" {
			t.failovers++
		}
	}
	t.total += len(tr.Events())
	*tr = *trace.New(tr.Label())
}

// planReps is how many times the traced pass times planner.New.
const planReps = 3

// layerTotals accumulates one workload's per-layer figures over its timed
// simulations.
type layerTotals struct {
	bareWall, wrappedWall, tracedWall float64
	allocTotal                        time.Duration
	allocFlows                        int
	incRounds, fullRounds             int
	samples                           []time.Duration
	allocBytes, mallocs               uint64
	events                            uint64
	replans                           int
	repairBytes                       float64
	trace                             traceTally
	violations                        int
	messages                          []string
}

// layerPass is the traced pass. For each timed simulation it makes four
// runs on identical inputs: bare (heap statistics and the untraced wall
// time), with the allocator timing wrapper (layer times), with a
// trace.Tracer (event counts) and with an invariants.Monitor (the checking
// pass). Every run's Result must equal the bare run's. Workloads marked
// for it also capture, encode, decode and resume a snapshot.
func layerPass(w *Workload, seed int64) *report {
	r := &report{Correct: true}
	in, plan, _, err := setup(w, seed)
	if err != nil {
		r.problem("setup: %v", err)
		return r
	}
	var planTimes []float64
	for i := 0; i < planReps; i++ {
		start := time.Now()
		p, err := in.plan()
		planTimes = append(planTimes, time.Since(start).Seconds())
		if err != nil || !reflect.DeepEqual(p, plan) {
			r.problem("planner.New is not repeatable (err %v)", err)
		}
	}

	var tot layerTotals
	var results []*runtime.Result
	avgJCT := map[string]float64{}
	var identity *runtime.Result // the Corral simulation's Result
	for _, s := range w.Sims {
		opts := in.options(s, plan, seed)
		simulate := func(o runtime.Options) (*runtime.Result, float64) {
			jobs := workload.Clone(in.Jobs)
			goruntime.GC()
			start := time.Now()
			res, err := runtime.Run(o, jobs)
			wall := time.Since(start).Seconds()
			if err != nil {
				r.problem("%s: %v", s.Label, err)
			}
			return res, wall
		}

		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		bare, wall := simulate(opts)
		goruntime.ReadMemStats(&after)
		if bare == nil {
			return r
		}
		t, err := checkResult(in.Jobs, bare)
		r.Attempted += t.Submitted
		r.Failed += t.Submitted - t.Completed
		if err != nil {
			r.problem("%s: %v", s.Label, err)
		}
		avgJCT[s.Label] = bare.AvgCompletionTime()
		if !s.Timed {
			continue
		}
		tot.bareWall += wall
		tot.allocBytes += after.TotalAlloc - before.TotalAlloc
		tot.mallocs += after.Mallocs - before.Mallocs
		results = append(results, bare)
		tot.events += bare.Events
		tot.replans += bare.Replans
		tot.repairBytes += bare.RepairBytes
		if s.Kind == runtime.Corral {
			identity = bare
		}
		same := func(what string, res *runtime.Result) {
			if res != nil && !reflect.DeepEqual(res, bare) {
				r.problem("%s: the Result %s differs from the bare run's", s.Label, what)
			}
		}

		o := opts
		pol := newTimedPolicy()
		o.Network = pol
		res, wall := simulate(o)
		same("with the allocator timing wrapper", res)
		tot.wrappedWall += wall
		tot.allocTotal += pol.total
		tot.allocFlows += pol.flows
		tot.samples = append(tot.samples, pol.samples...)
		inc, full := pol.inner.Rounds()
		tot.incRounds += inc
		tot.fullRounds += full

		o = opts
		tr := trace.New(w.Name + "/" + s.Label)
		o.Trace = tr
		o.Network = &drainingPolicy{inner: netsim.NewIncrementalMaxMin(), tr: tr, tally: &tot.trace, limit: drainEvents}
		res, wall = simulate(o)
		same("with a tracer", res)
		tot.tracedWall += wall
		tot.trace.drain(tr)

		o = opts
		mon := invariants.NewMonitor(in.Topo.Machines(), in.Topo.SlotsPerMachine)
		o.Probe = mon
		res, _ = simulate(o)
		same("with the invariant monitor", res)
		tot.violations += mon.ViolationCount()
		for _, v := range mon.Violations() {
			tot.messages = append(tot.messages, s.Label+": "+v)
		}
		if n := mon.ViolationCount() - len(mon.Violations()); n > 0 {
			tot.messages = append(tot.messages, fmt.Sprintf("%s: %d more violations not stored", s.Label, n))
		}
		if !mon.Ended() {
			tot.violations++
			tot.messages = append(tot.messages, s.Label+": monitor never saw the end of the simulation")
		}
	}
	if d, err := digest(results); err == nil {
		fmt.Printf("result digest %s\n", d)
	} else {
		r.problem("%v", err)
	}
	for _, m := range tot.messages {
		fmt.Printf("INVARIANT VIOLATION: %s\n", m)
	}

	add := r.add
	add("planner.plan_s", median(planTimes), "s", fmt.Sprintf("wall time of planner.New, median of %d", planReps))
	add("planner.candidates", float64(in.candidates()), "count", "J*(R-1)+1, computed from the inputs")
	add("planner.replans", float64(tot.replans), "count", "Result.Replans")
	add("planner.objective_s", plan.ObjectiveValue(), "s", "offline plan objective (identity check)")

	calls := len(tot.samples)
	allocS := tot.allocTotal.Seconds()
	add("netsim.allocate_calls", float64(calls), "count", "Allocate calls through the timing wrapper")
	add("netsim.allocate_s", allocS, "s", "host time inside Allocate")
	add("netsim.allocate_share", allocS/tot.wrappedWall, "ratio", "allocate_s / wrapped-run sim wall")
	slices.Sort(tot.samples)
	pct := func(p float64) float64 {
		if calls == 0 {
			return 0
		}
		return float64(tot.samples[int(p*float64(calls-1))].Nanoseconds()) / 1e3
	}
	add("netsim.allocate_us_p50", pct(0.50), "us", fmt.Sprintf("per-call latency, %d samples", calls))
	add("netsim.allocate_us_p99", pct(0.99), "us", fmt.Sprintf("per-call latency, %d samples", calls))
	add("netsim.flows_per_allocate", ratio(float64(tot.allocFlows), float64(calls)), "flows", "mean len(flows) per call")
	add("netsim.full_round_frac", ratio(float64(tot.fullRounds), float64(tot.incRounds+tot.fullRounds)), "ratio",
		fmt.Sprintf("IncrementalMaxMin.Rounds: %d full of %d", tot.fullRounds, tot.incRounds+tot.fullRounds))
	add("netsim.flows_started", float64(tot.trace.kinds[trace.KFlowStart]), "count", "trace flow_start")
	add("netsim.rate_updates", float64(tot.trace.kinds[trace.KFlowRate]), "count", "trace flow_rate")

	selfS := tot.wrappedWall - allocS
	add("runtime.self_s", selfS, "s", "wrapped-run sim wall - allocate_s")
	add("runtime.ns_per_event", 1e9*selfS/float64(tot.events), "ns", "runtime.self_s per DES event")
	add("runtime.task_starts", float64(tot.trace.kinds[trace.KTaskStart]), "count", "trace task_start")
	add("runtime.task_aborts", float64(tot.trace.kinds[trace.KTaskAbort]), "count", "trace task_abort")
	add("runtime.alloc_mb", float64(tot.allocBytes)/1e6, "MB", "MemStats.TotalAlloc delta around runtime.Run")
	add("runtime.allocs_per_event", float64(tot.mallocs)/float64(tot.events), "allocs", "MemStats.Mallocs delta per DES event")
	add("runtime.makespan_s", identity.Makespan, "s", "simulated (identity check)")
	add("runtime.avg_jct_s", identity.AvgCompletionTime(), "s", "simulated (identity check)")
	corral := w.corral().Label
	add("runtime.jct_reduction_pct", 100*(1-avgJCT[corral]/avgJCT["yarn-cs"]), "%",
		fmt.Sprintf("simulated avg JCT, 1 - %s/yarn-cs", corral))
	add("netsim.cross_rack_gb", identity.CrossRackBytes/1e9, "GB", "simulated (identity check)")
	add("des.events", float64(tot.events), "count", "Result.Events")

	starts, commits := tot.trace.kinds[trace.KRepairStart], tot.trace.kinds[trace.KRepairCommit]
	add("dfs.block_reads", float64(tot.trace.kinds[trace.KBlockRead]), "count", "trace block_read (remote reads)")
	add("dfs.failover_reads", float64(tot.trace.failovers), "count", "trace block_read marked failover")
	add("dfs.repair_starts", float64(starts), "count", "trace repair_start")
	add("dfs.repair_commits", float64(commits), "count", "trace repair_commit")
	add("dfs.repair_commit_frac", ratio(float64(commits), float64(starts)), "ratio", "repair_commits / repair_starts")
	add("dfs.repair_gb", tot.repairBytes/1e9, "GB", "Result.RepairBytes")

	snapshotMetrics(r, w, &in, plan, seed, identity)

	add("trace.events", float64(tot.trace.total), "count", "events the tracer buffered")
	add("trace.overhead_s", tot.tracedWall-tot.bareWall, "s", "traced minus bare sim wall")
	add("invariants.violations", float64(tot.violations), "count", "invariants.Monitor as Options.Probe; messages above")
	return r
}

// snapshotMetrics runs the crash-resume check on workloads marked for it
// and reports its timed calls; other workloads report zeros.
func snapshotMetrics(r *report, w *Workload, in *Inputs, plan *planner.Plan, seed int64, want *runtime.Result) {
	var c resumeCost
	note := "not run on this workload"
	if w.ResumeCheck {
		note = "timed call of the crash-resume check at half the events"
		var err error
		if c, err = resumeCheck(in, plan, seed, want); err != nil {
			r.problem("crash-resume check: %v", err)
		}
	}
	r.add("snapshot.capture_s", c.capture, "s", note)
	r.add("snapshot.encode_s", c.encode, "s", note)
	r.add("snapshot.decode_s", c.decode, "s", note)
	r.add("snapshot.resume_s", c.resume, "s", note)
	r.add("snapshot.bytes", float64(c.bytes), "bytes", note)
}

type resumeCost struct {
	capture, encode, decode, resume float64
	bytes                           int
}

// resumeCheck captures the workload's Corral simulation at half its
// events, encodes, decodes and resumes the snapshot, and requires the
// resumed Result to equal want, the uninterrupted run's.
func resumeCheck(in *Inputs, plan *planner.Plan, seed int64, want *runtime.Result) (resumeCost, error) {
	var c resumeCost
	opts := in.options(Sim{Kind: runtime.Corral}, plan, seed)
	start := time.Now()
	snap, err := runtime.CaptureAt(opts, workload.Clone(in.Jobs), runtime.CheckpointTarget{EventIndex: want.Events / 2})
	c.capture = time.Since(start).Seconds()
	if err != nil {
		return c, fmt.Errorf("capture: %w", err)
	}
	start = time.Now()
	raw, err := snapshot.Encode(snap)
	c.encode = time.Since(start).Seconds()
	if err != nil {
		return c, fmt.Errorf("encode: %w", err)
	}
	c.bytes = len(raw)
	start = time.Now()
	decoded, err := snapshot.Decode(raw)
	c.decode = time.Since(start).Seconds()
	if err != nil {
		return c, fmt.Errorf("decode: %w", err)
	}
	start = time.Now()
	got, err := runtime.Resume(decoded, runtime.ResumeOptions{})
	c.resume = time.Since(start).Seconds()
	if err != nil {
		return c, fmt.Errorf("resume: %w", err)
	}
	if !reflect.DeepEqual(got, want) {
		return c, fmt.Errorf("the resumed Result differs from the uninterrupted one (makespan %v vs %v)", got.Makespan, want.Makespan)
	}
	return c, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
