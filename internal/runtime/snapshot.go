package runtime

// Snapshot/restore: capture a run mid-flight as a snapshot.Snapshot and
// reconstitute it later, continuing to an identical Result and trace.
//
// The DES heap stores closures, which cannot serialize. Restore is
// therefore replay-based, leaning on the determinism contract every PR
// since the first has pinned: a run is a pure function of (Options, jobs,
// Seed). A snapshot records the full run input (Spec), the capture point
// (Meta.EventIndex) and a deep export of all observable state (State).
// Resume rebuilds the runtime from Spec, re-fires exactly EventIndex
// events, audits the replayed live state field-by-field against the
// captured State — any mismatch is a hard error and an invariant-monitor
// violation — and then runs to completion. Because replay re-emits every
// event from time zero, a tracer attached on resume reproduces the full
// run's trace byte for byte, which is what the crash-resume equivalence
// harness (internal/experiments/resume.go) asserts.
//
// Observer attachments (Probe, Trace) are never part of a snapshot:
// tracing and probing must not perturb a run, so they must not perturb a
// snapshot either. Resumers reattach them via ResumeOptions.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"corral/internal/job"
	"corral/internal/netsim"
	"corral/internal/snapshot"
	"corral/internal/trace"
)

// countingSource is the run's one seeded RNG stream: math/rand's additive
// lagged-Fibonacci generator (rngSource) held inline, so the hot draws need
// no rand.Source64 interface call, plus a count of the values drawn. The
// draw count is observable state: a replayed run must consume exactly as
// many values as the original. Go 1 compatibility freezes math/rand's
// seeded stream, so the values equal rand.NewSource(seed)'s.
type countingSource struct {
	vec       [rngLen]uint64
	feed, tap int
	draws     uint64
}

const (
	rngLen = 607 // math/rand's rngLen: the lag of the feed
	rngTap = 273 // math/rand's rngTap: the lag of the tap
)

func newCountingSource(seed int64) *countingSource {
	c := &countingSource{}
	c.Seed(seed)
	return c
}

// Seed recovers rngSource's seeded state from its first rngLen outputs y
// rather than from a copy of math/rand's rngCooked table. Output n adds
// the tap into feed slot f(n) = (rngLen-rngTap-1-n) mod rngLen; for
// n >= rngTap that tap slot already holds output n-rngTap, and for
// n < rngTap it is slot f(n+rngLen-rngTap), still at its seeded value.
func (c *countingSource) Seed(seed int64) {
	src := rand.NewSource(seed).(rand.Source64)
	var y [rngLen]uint64
	for n := range y {
		y[n] = src.Uint64()
	}
	f := func(n int) int { return (rngLen - rngTap - 1 - n + rngLen) % rngLen }
	for n := rngTap; n < rngLen; n++ {
		c.vec[f(n)] = y[n] - y[n-rngTap]
	}
	for n := 0; n < rngTap; n++ {
		c.vec[f(n)] = y[n] - c.vec[f(n+rngLen-rngTap)]
	}
	c.feed, c.tap = rngLen-rngTap, 0
	c.draws = 0
}

func (c *countingSource) Uint64() uint64 {
	var x uint64
	x, c.feed, c.tap = next(&c.vec, c.feed, c.tap)
	c.draws++
	return x
}

func (c *countingSource) Int63() int64 {
	return int64(c.Uint64() & math.MaxInt64)
}

// next is rngSource.Uint64 on explicit state: feed and tap step down mod
// rngLen and vec[feed] += vec[tap] is the value drawn.
func next(vec *[rngLen]uint64, feed, tap int) (x uint64, feed2, tap2 int) {
	if feed--; feed < 0 {
		feed += rngLen
	}
	if tap--; tap < 0 {
		tap += rngLen
	}
	x = vec[feed] + vec[tap]
	vec[feed] = x
	return x, feed, tap
}

// int31ns fills js[k] = rand.New(c).Int31n(n0+k) for k = len(js)-1 down
// to 0, in that order, with the generator state in locals. It is
// math/rand's Int31n on Int31 = Int63()>>32: a draw v is rejected above
// limit = 2^31-1 - 2^31 mod n and otherwise yields v % n. Int31n's
// power-of-two mask is the case limit = 2^31-1, where v & (n-1) = v % n.
// limit is at least 2^31 - n, so a draw v <= 2^31-1-n is accepted before
// limit is computed: the common draw costs one division, not two.
//
//corral:hotpath
func (c *countingSource) int31ns(js []int32, n0 int32) {
	vec, feed, tap, draws := &c.vec, c.feed, c.tap, c.draws
	for k := len(js) - 1; k >= 0; k-- {
		n := n0 + int32(k)
		for {
			var x uint64
			x, feed, tap = next(vec, feed, tap)
			draws++
			v := int32(x>>32) & math.MaxInt32
			if v <= math.MaxInt32-n || v <= math.MaxInt32-int32((1<<31)%uint32(n)) {
				js[k] = int32(uint32(v) % uint32(n))
				break
			}
		}
	}
	c.feed, c.tap, c.draws = feed, tap, draws
}

// fisherYates fills js[i] = rand.New(c).Intn(i+1) for i = len(js)-1 down
// to 1: the draws of one Fisher-Yates shuffle of len(js) elements, in
// math/rand's order.
//
//corral:hotpath
func (c *countingSource) fisherYates(js []int32) {
	if len(js) > 1 {
		c.int31ns(js[1:], 2)
	}
}

// CheckpointTarget names one point to snapshot at: after EventIndex fired
// events when EventIndex > 0, otherwise at the first event boundary whose
// simulated time reaches SimTime. Meta.EventIndex always records the
// actual (event-exact) capture point.
type CheckpointTarget struct {
	EventIndex uint64
	SimTime    float64
}

func (t CheckpointTarget) String() string {
	if t.EventIndex > 0 {
		return fmt.Sprintf("ev:%d", t.EventIndex)
	}
	return fmt.Sprintf("t:%g", t.SimTime)
}

// ResumeOptions reattaches the observer hooks a snapshot deliberately
// excludes.
type ResumeOptions struct {
	Probe trace.Observer
	Trace *trace.Tracer
}

// RunWithSnapshots runs like Run but captures a snapshot at each target,
// passing it to fn between event firings. fn returning false stops the
// simulation immediately (RunWithSnapshots then returns (nil, nil)).
// Targets a drained simulation never reaches make the run's Result come
// back with an error naming them.
func RunWithSnapshots(opts Options, jobs []*job.Job, targets []CheckpointTarget, fn func(*snapshot.Snapshot) bool) (*Result, error) {
	for _, t := range targets {
		if t.EventIndex == 0 && t.SimTime < 0 {
			return nil, fmt.Errorf("runtime: invalid snapshot target %v: negative SimTime", t)
		}
	}
	rt, err := newRuntime(opts, jobs)
	if err != nil {
		return nil, err
	}
	spec, err := rt.buildSpec()
	if err != nil {
		return nil, err
	}
	rt.start()
	met := make([]bool, len(targets))
	for rt.sim.Step() {
		for i, t := range targets {
			if met[i] {
				continue
			}
			if t.EventIndex > 0 {
				if rt.sim.Fired() < t.EventIndex {
					continue
				}
			} else if float64(rt.sim.Now()) < t.SimTime {
				continue
			}
			met[i] = true
			if !fn(rt.buildSnapshot(spec)) {
				return nil, nil
			}
		}
	}
	res, err := rt.finish()
	if err != nil {
		return nil, err
	}
	for i, t := range targets {
		if !met[i] {
			return res, fmt.Errorf("runtime: snapshot target %v not reached: simulation ended after %d events at t=%g",
				t, res.Events, float64(rt.sim.Now()))
		}
	}
	return res, nil
}

// CaptureAt runs until the target and returns the snapshot taken there,
// tearing the run down immediately after. Reaching simulation end first is
// an error.
func CaptureAt(opts Options, jobs []*job.Job, target CheckpointTarget) (*snapshot.Snapshot, error) {
	var snap *snapshot.Snapshot
	res, err := RunWithSnapshots(opts, jobs, []CheckpointTarget{target}, func(s *snapshot.Snapshot) bool {
		snap = s
		return false
	})
	if err != nil {
		return nil, err
	}
	if snap == nil {
		var events uint64
		if res != nil {
			events = res.Events
		}
		return nil, fmt.Errorf("runtime: snapshot target %v past simulation end (%d events)", target, events)
	}
	return snap, nil
}

// Resume reconstitutes a snapshotted run and continues it to completion.
// The runtime is rebuilt from the snapshot's Spec and deterministically
// replayed to Meta.EventIndex; the replayed state is then audited
// field-by-field against the snapshot's State section. Any mismatch —
// a corrupted snapshot, or a build whose semantics drifted from the
// snapshotting build — is traced as an audit failure (an invariant
// violation to an attached probe) and returned as an error; the run never
// continues from unverified state.
func Resume(snap *snapshot.Snapshot, ro ResumeOptions) (*Result, error) {
	if snap == nil {
		return nil, fmt.Errorf("runtime: resuming nil snapshot")
	}
	if snap.Version != snapshot.Version {
		return nil, fmt.Errorf("runtime: snapshot version %d not supported (this build reads version %d)", snap.Version, snapshot.Version)
	}
	opts, jobs, err := optionsFromSpec(&snap.Spec)
	if err != nil {
		return nil, err
	}
	opts.Probe = ro.Probe
	opts.Trace = ro.Trace
	rt, err := newRuntime(opts, jobs)
	if err != nil {
		return nil, err
	}
	// The Spec must be exactly what this build records for the run it
	// derives from it, so a substrate constant set to another value or a
	// non-zero FlowEpoch fails here rather than replaying a different run.
	// Policy was checked by policyByName instead, since the max-min names
	// deliberately alias one allocator.
	spec, err := rt.buildSpec()
	if err != nil {
		return nil, err
	}
	spec.Policy = snap.Spec.Policy
	if diffs := snapshot.DiffSpecs(&spec, &snap.Spec); len(diffs) > 0 {
		return nil, fmt.Errorf("runtime: snapshot spec differs from the one this build records for it in %d field(s) (this build vs snapshot): %s", len(diffs), diffs[0])
	}
	rt.start()
	for rt.sim.Fired() < snap.Meta.EventIndex {
		if !rt.sim.Step() {
			err := fmt.Errorf("snapshot restore audit: event queue drained after %d events, snapshot taken at %d — spec does not reproduce the captured run",
				rt.sim.Fired(), snap.Meta.EventIndex)
			rt.tr.Audit(float64(rt.sim.Now()), err.Error())
			return nil, err
		}
	}
	if diffs := snapshot.DiffStates(rt.captureState(), &snap.State); len(diffs) > 0 {
		err := fmt.Errorf("snapshot restore audit: replayed state diverges from captured state in %d field(s): %s",
			len(diffs), diffs[0])
		rt.tr.Audit(float64(rt.sim.Now()), err.Error())
		return nil, err
	}
	// Restored state verified; re-run the DFS byte-conservation audit on it
	// before continuing, so a monitor attached on resume re-checks the
	// restored world, not just the events that follow.
	if rt.opts.Probe != nil {
		if err := rt.store.AuditAccounting(); err != nil {
			rt.tr.Audit(float64(rt.sim.Now()), err.Error())
		}
	}
	rt.sim.Run()
	return rt.finish()
}

// buildSpec serializes the run's full input, the substrate constants
// included. It fails on a custom network policy instance, which cannot
// round-trip.
func (rt *runtime) buildSpec() (snapshot.Spec, error) {
	o := rt.opts
	outRep, maxReplans := outputReplicas, 0
	if o.InMemoryInput {
		outRep = 1
	}
	if o.ReplanWindow > 0 {
		maxReplans = maxReplansPerWindow
	}
	policy := ""
	if o.Network != nil {
		policy = o.Network.Name()
		if _, err := policyByName(policy); err != nil {
			return snapshot.Spec{}, fmt.Errorf("runtime: cannot snapshot run with custom network policy %q", policy)
		}
	}
	spec := snapshot.Spec{
		Topology:  o.Topology,
		Scheduler: o.Scheduler.String(),
		Policy:    policy,
		Seed:      o.Seed,
		Plan:      o.Plan,

		BlockSize:            o.BlockSize,
		DelayNodeLocal:       o.DelayNodeLocal,
		DelayRackLocal:       o.DelayRackLocal,
		OutputReplication:    outRep,
		Heartbeat:            heartbeat,
		ReplanOnFailure:      o.ReplanOnFailure,
		StragglerFraction:    o.StragglerFraction,
		StragglerSlowdown:    o.StragglerSlowdown,
		Speculation:          o.Speculation,
		SpeculationThreshold: o.SpeculationThreshold,
		AdhocShare:           adhocShare,
		RemoteStorageInput:   o.RemoteStorageInput,
		InMemoryInput:        o.InMemoryInput,
		TaskFailureProb:      o.TaskFailureProb,
		MaxTaskAttempts:      maxTaskAttempts,
		RetryBackoff:         retryBackoff,
		BlacklistThreshold:   blacklistThreshold,
		BlacklistCooldown:    blacklistCooldown,
		MaxAMAttempts:        maxAMAttempts,
		AMRestartDelay:       amRestartDelay,

		PlannerBudget:       o.PlannerBudget,
		ReplanWindow:        o.ReplanWindow,
		MaxReplansPerWindow: maxReplans,
		AdmissionLimit:      o.AdmissionLimit,
		AdmissionQueueCap:   o.AdmissionQueueCap,

		// Copies that stay nil when empty, so an empty schedule encodes as
		// null.
		FailedMachines: append([]int(nil), o.FailedMachines...),
		Failures:       append([]Failure(nil), o.Failures...),
		LinkFaults:     append([]LinkFault(nil), o.LinkFaults...),
		AMFailures:     append([]AMFailure(nil), o.AMFailures...),
		Corruptions:    append([]Corruption(nil), o.Corruptions...),
	}
	for _, je := range rt.jobs {
		spec.Jobs = append(spec.Jobs, je.job)
	}
	return spec, nil
}

// policyByName is the inverse of Policy.Name for the bundled policies.
// "" selects the default. The three max-min names all resolve to a fresh
// incremental allocator: the grouped and reference allocators compute
// bit-identical rates, so snapshots recorded under any of them resume
// equivalently.
func policyByName(name string) (netsim.Policy, error) {
	switch name {
	case "":
		return nil, nil
	case "maxmin", "maxmin-grouped", "maxmin-incremental":
		return netsim.NewIncrementalMaxMin(), nil
	case "varys":
		return netsim.Varys{}, nil
	}
	return nil, fmt.Errorf("runtime: unknown network policy %q in snapshot spec", name)
}

// optionsFromSpec rebuilds the run input a snapshot's Spec records. The
// fields that pin substrate constants are never read: Resume checks them
// against the Spec it rebuilds.
func optionsFromSpec(spec *snapshot.Spec) (Options, []*job.Job, error) {
	kind, err := ParseKind(spec.Scheduler)
	if err != nil {
		return Options{}, nil, err
	}
	policy, err := policyByName(spec.Policy)
	if err != nil {
		return Options{}, nil, err
	}
	opts := Options{
		Topology:  spec.Topology,
		Scheduler: kind,
		Network:   policy,
		Seed:      spec.Seed,
		Plan:      spec.Plan,

		BlockSize:            spec.BlockSize,
		DelayNodeLocal:       spec.DelayNodeLocal,
		DelayRackLocal:       spec.DelayRackLocal,
		ReplanOnFailure:      spec.ReplanOnFailure,
		StragglerFraction:    spec.StragglerFraction,
		StragglerSlowdown:    spec.StragglerSlowdown,
		Speculation:          spec.Speculation,
		SpeculationThreshold: spec.SpeculationThreshold,
		RemoteStorageInput:   spec.RemoteStorageInput,
		InMemoryInput:        spec.InMemoryInput,
		TaskFailureProb:      spec.TaskFailureProb,

		PlannerBudget:     spec.PlannerBudget,
		ReplanWindow:      spec.ReplanWindow,
		AdmissionLimit:    spec.AdmissionLimit,
		AdmissionQueueCap: spec.AdmissionQueueCap,

		FailedMachines: append([]int(nil), spec.FailedMachines...),
		Failures:       append([]Failure(nil), spec.Failures...),
		LinkFaults:     append([]LinkFault(nil), spec.LinkFaults...),
		AMFailures:     append([]AMFailure(nil), spec.AMFailures...),
		Corruptions:    append([]Corruption(nil), spec.Corruptions...),
	}
	return opts, spec.Jobs, nil
}

// buildSnapshot assembles the full snapshot at the current event boundary.
func (rt *runtime) buildSnapshot(spec snapshot.Spec) *snapshot.Snapshot {
	return &snapshot.Snapshot{
		Version: snapshot.Version,
		Meta: snapshot.Meta{
			EventIndex: rt.sim.Fired(),
			SimTime:    float64(rt.sim.Now()),
			Seed:       rt.opts.Seed,
			Scheduler:  rt.opts.Scheduler.String(),
			Label:      fmt.Sprintf("sim/%s/seed%d", rt.opts.Scheduler, rt.opts.Seed),
		},
		Spec:  spec,
		State: *rt.captureState(),
	}
}

// captureState deep-exports every piece of observable simulation state.
// Must be called between event firings (a clean heap boundary).
func (rt *runtime) captureState() *snapshot.State {
	st := &snapshot.State{
		DES: snapshot.DESState{
			Now:   float64(rt.sim.Now()),
			Fired: rt.sim.Fired(),
			Seq:   rt.sim.Seq(),
		},
		RNGDraws: rt.rngSrc.draws,
		Net:      rt.net.CaptureState(),
		DFS:      rt.store.CaptureState(),
	}
	for _, e := range rt.sim.PendingEvents() {
		st.DES.Pending = append(st.DES.Pending, snapshot.PendingEvent{
			At: float64(e.At), Seq: e.Seq, Canceled: e.Canceled,
		})
	}
	r := &st.Runtime
	r.FreeSlots = append([]int(nil), rt.freeSlots...)
	r.Dead = append([]bool(nil), rt.dead...)
	r.DeadCount = rt.deadCount
	r.MachineOrder = make([]int, len(rt.machineOrder))
	for i, m := range rt.machineOrder {
		r.MachineOrder[i] = int(m)
	}
	r.Blacklisted = append([]bool(nil), rt.blacklisted...)
	r.MachineFailures = append([]int(nil), rt.machineFailures...)
	r.FailedJobs = rt.failedJobs
	r.RackLinkFactor = append([]float64(nil), rt.rackLinkFactor...)
	r.RecoverAt = make([]float64, len(rt.recoverAt))
	for i, v := range rt.recoverAt {
		if math.IsInf(v, 1) {
			v = -1 // JSON cannot carry +Inf; -1 encodes "none scheduled"
		}
		r.RecoverAt[i] = v
	}
	r.RepairBytes = rt.repairBytes
	r.Replans = rt.replans
	r.Active = rt.active
	r.SWLoad = append([]int(nil), rt.swLoad...)
	r.CoflowID = int64(rt.coflowID)
	r.DispatchPending = rt.dispatchPending
	r.RetryPending = rt.retryPending
	r.Declined = rt.declined
	r.RunningPlanned = rt.runningPlanned
	r.RunningAdhoc = rt.runningAdhoc
	r.HaveAdhoc = rt.haveAdhoc
	r.HavePlanned = rt.havePlanned
	r.LastRepairDone = rt.lastRepairDone
	r.ReplansSuppressed = rt.replansSuppressed
	r.DegradedFull = rt.degradations.Full
	r.DegradedIncremental = rt.degradations.Incremental
	r.DegradedGreedy = rt.degradations.Greedy
	r.ReplanWindowEnd = rt.replanWindowEnd
	r.ReplansInWindow = rt.replansInWindow
	r.ReplanCooldown = rt.replanCooldown
	r.ReplanPending = rt.replanPending
	r.Admitted = rt.admitted
	r.Deferred = rt.deferred
	r.Shed = rt.shed
	r.MaxAdmissionQueue = rt.maxAdmissionQ
	for _, je := range rt.admissionQueue {
		r.AdmissionQueue = append(r.AdmissionQueue, je.job.ID)
	}
	for _, op := range rt.repairList {
		r.Repairs = append(r.Repairs, snapshot.RepairState{
			Src: op.rep.Src, Dst: op.rep.Dst, Slot: op.rep.Slot,
			Bytes: op.rep.Block.Size, Done: op.done, Canceled: op.canceled,
		})
	}
	for _, je := range rt.jobs {
		r.Jobs = append(r.Jobs, captureJob(je))
	}
	for m := 0; m < len(rt.freeSlots); m++ {
		for _, tk := range rt.running[m] {
			a := snapshot.AttemptState{
				Machine: m,
				JobID:   tk.je.job.ID,
				Stage:   tk.st.idx,
				Started: float64(tk.started),
				NoSpec:  tk.noSpec,
				NFlows:  len(tk.flows),
				NEvents: len(tk.events),
			}
			if tk.mapT != nil {
				a.Role, a.Task, a.Attempts = "map", tk.mapT.index, tk.mapT.attempts
			} else {
				a.Role, a.Task, a.Attempts = "reduce", tk.redT.index, tk.redT.attempts
			}
			r.Running = append(r.Running, a)
		}
	}
	return st
}

func captureJob(je *jobExec) snapshot.JobState {
	js := snapshot.JobState{
		ID:            je.job.ID,
		Submitted:     je.submitted,
		Completion:    je.completion,
		Failed:        je.failed,
		FailReason:    je.failReason,
		AMDown:        je.amDown,
		AMAttempt:     je.amAttempt,
		AMFailures:    je.amFailures,
		Skips:         je.skips,
		Constrained:   je.allowedRacks != nil,
		AllowedRacks:  append([]int(nil), je.allowedRacks...),
		TasksLaunched: je.tasksLaunched,
		TaskSeconds:   je.taskSeconds,
		ReduceSeconds: append([]float64(nil), je.reduceSeconds...),
		StagesLeft:    je.stagesLeft,
	}
	if je.assignment != nil {
		js.HasAssignment = true
		js.AssignedRacks = append([]int(nil), je.assignment.Racks...)
		js.Priority = je.assignment.Priority
	}
	for rk, touched := range je.racksTouched {
		if touched {
			js.RacksTouched = append(js.RacksTouched, rk) // ascending by construction
		}
	}
	for _, st := range je.stages {
		js.Stages = append(js.Stages, captureStage(st))
	}
	return js
}

func captureStage(st *stageExec) snapshot.StageState {
	ss := snapshot.StageState{
		Phase:            int(st.phase),
		Coflow:           int64(st.coflow),
		RemoteStorage:    st.remoteStorage,
		UpstreamMachines: append([]int(nil), st.upstreamMachines...),
		PendingMaps:      st.pendingMapCount,
		MapsDone:         st.mapsDone,
		MapsOnRack:       append([]int(nil), st.mapsOnRack...),
		ReducesDone:      st.reducesDone,
		ReduceMachines:   append([]int(nil), st.reduceMachines...),
	}
	for m := range st.mapsOnMachine {
		ss.MapsOnMachine = append(ss.MapsOnMachine, snapshot.MachineCount{Machine: m, Count: st.mapsOnMachine[m]})
	}
	sort.Slice(ss.MapsOnMachine, func(i, j int) bool { return ss.MapsOnMachine[i].Machine < ss.MapsOnMachine[j].Machine })
	ss.ByMachine = captureQueues(st.byMachine)
	ss.ByRack = captureQueues(st.byRack)
	for _, t := range st.anyPref {
		ss.AnyPref = append(ss.AnyPref, t.index)
	}
	for _, t := range st.anywhere {
		ss.Anywhere = append(ss.Anywhere, t.index)
	}
	for _, t := range st.maps {
		ss.Maps = append(ss.Maps, snapshot.TaskState{
			Assigned:   t.assigned,
			Speculated: t.speculated,
			Attempts:   t.attempts,
			DoneOn:     t.doneOn,
			SrcMachine: t.srcMachine,
			Bytes:      t.bytes,
		})
	}
	for _, rT := range st.reduces {
		ss.Reduces = append(ss.Reduces, snapshot.TaskState{
			Speculated: rT.speculated,
			Attempts:   rT.attempts,
			DoneOn:     rT.doneOn,
			SrcMachine: -1,
		})
	}
	for _, rT := range st.reduceQ {
		ss.ReduceQ = append(ss.ReduceQ, rT.index)
	}
	return ss
}

// captureQueues exports a locality-queue map sorted by key. Stale entries
// (tasks already assigned through another bucket, awaiting lazy cleanup)
// are included: future pops depend on them.
func captureQueues(q map[int][]*mapTask) []snapshot.TaskQueue {
	keys := make([]int, 0, len(q))
	for k := range q {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]snapshot.TaskQueue, 0, len(keys))
	for _, k := range keys {
		tq := snapshot.TaskQueue{Key: k}
		for _, t := range q[k] {
			tq.Tasks = append(tq.Tasks, t.index)
		}
		out = append(out, tq)
	}
	return out
}
