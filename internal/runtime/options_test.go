package runtime

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"corral/internal/job"
	"corral/internal/netsim"
	"corral/internal/snapshot"
)

// unserializedOptions are the Options fields a snapshot Spec deliberately
// omits: the policy instance (recorded by name) and the observer hooks a
// resumer reattaches.
var unserializedOptions = map[string]bool{
	"Network": true, "Probe": true, "Trace": true,
}

// fillDistinct sets every leaf under v to a distinct non-zero value drawn
// from *next. Pointers, maps and slices get one filled element each.
func fillDistinct(t *testing.T, v reflect.Value, path string, next *int) {
	t.Helper()
	*next++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*next))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*next) + 0.25)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(t, v.Field(i), path+"."+v.Type().Field(i).Name, next)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillDistinct(t, v.Elem(), path, next)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillDistinct(t, v.Index(0), path+"[0]", next)
	case reflect.Map:
		key, elem := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		fillDistinct(t, key, path+"[key]", next)
		fillDistinct(t, elem, path+"[elem]", next)
		v.Set(reflect.MakeMap(v.Type()))
		v.SetMapIndex(key, elem)
	default:
		t.Fatalf("%s: no distinct value for kind %s; add it to unserializedOptions or teach fillDistinct", path, v.Kind())
	}
}

// TestOptionsSnapshotRoundTrip is the one-config contract: every
// serializable Options field survives buildSpec → Encode → Decode →
// optionsFromSpec unchanged. A field added to Options without snapshot
// plumbing comes back zero and fails here.
func TestOptionsSnapshotRoundTrip(t *testing.T) {
	var want Options
	v := reflect.ValueOf(&want).Elem()
	next := 0
	for i := 0; i < v.NumField(); i++ {
		if name := v.Type().Field(i).Name; !unserializedOptions[name] {
			fillDistinct(t, v.Field(i), name, &next)
		}
	}
	want.Scheduler = ShuffleWatcher // the Spec records the name, so it must be a real one

	spec, err := (&runtime{opts: want}).buildSpec()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := snapshot.Encode(&snapshot.Snapshot{Version: snapshot.Version, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := snapshot.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := optionsFromSpec(&decoded.Spec)
	if err != nil {
		t.Fatal(err)
	}
	gv := reflect.ValueOf(got)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if unserializedOptions[name] {
			continue
		}
		if !reflect.DeepEqual(gv.Field(i).Interface(), v.Field(i).Interface()) {
			t.Errorf("Options.%s does not round-trip through the snapshot Spec:\n got:  %+v\n want: %+v",
				name, gv.Field(i).Interface(), v.Field(i).Interface())
		}
	}
}

// TestResumeRejectsBadSpec: a Spec this build cannot honour fails Resume
// with an error naming the field, never a panic or a silently different
// run.
func TestResumeRejectsBadSpec(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*snapshot.Spec)
		want   string
	}{
		{"flow epoch", func(s *snapshot.Spec) { s.FlowEpoch = 0.5 }, "FlowEpoch"},
		{"unknown policy", func(s *snapshot.Spec) { s.Policy = "bogus" }, "bogus"},
		{"heartbeat", func(s *snapshot.Spec) { s.Heartbeat = 2 }, "Heartbeat"},
		{"in-memory replication", func(s *snapshot.Spec) { s.InMemoryInput, s.OutputReplication = true, 3 }, "OutputReplication"},
		{"re-replication off", func(s *snapshot.Spec) { s.DisableReReplication = true }, "DisableReReplication"},
		{"attempt budget", func(s *snapshot.Spec) { s.MaxTaskAttempts = 7 }, "MaxTaskAttempts"},
	} {
		snap, err := CaptureAt(snapOpts(7), snapJobs(), CheckpointTarget{EventIndex: 50})
		if err != nil {
			t.Fatal(err)
		}
		tc.mutate(&snap.Spec)
		_, err = Resume(snap, ResumeOptions{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Resume error = %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}

// TestResumeReferenceAllocatorSnapshot: a run on the reference MaxMinFair
// allocator records Policy "maxmin", which resumes on the incremental
// allocator; the rates are bit-identical, so the resumed Result must be
// too.
func TestResumeReferenceAllocatorSnapshot(t *testing.T) {
	opts := snapOpts(7)
	opts.Network = netsim.MaxMinFair{}
	base := mustRun(t, opts, snapJobs())
	snap, err := CaptureAt(opts, snapJobs(), CheckpointTarget{EventIndex: base.Events / 2})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Spec.Policy != "maxmin" {
		t.Fatalf("Spec.Policy = %q, want \"maxmin\"", snap.Spec.Policy)
	}
	resumed, err := Resume(snap, ResumeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, base) {
		t.Errorf("resumed Result diverged from the uninterrupted MaxMinFair run:\n got:  %+v\n want: %+v", resumed, base)
	}
}

// TestRejectsNonFiniteAndOutOfRangeFloats: every float option that is
// NaN, infinite or out of range fails newRuntime with an error naming the
// field — NaN slips past a `v < 0` check, so each bound must be an
// interval test.
func TestRejectsNonFiniteAndOutOfRangeFloats(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		field string
		mut   func(*Options)
	}{
		{"Failures[0].At", func(o *Options) { o.Failures = []Failure{{At: nan, Machine: 0}} }},
		{"Failures[1].Downtime", func(o *Options) {
			o.Failures = []Failure{{At: 1, Machine: 0}, {At: 1, Machine: 1, Downtime: inf}}
		}},
		{"LinkFaults[0].Factor", func(o *Options) { o.LinkFaults = []LinkFault{{At: 1, Rack: 0, Factor: nan}} }},
		{"AMFailures[0].At", func(o *Options) { o.AMFailures = []AMFailure{{At: nan, JobID: 1}} }},
		{"Corruptions[0].At", func(o *Options) { o.Corruptions = []Corruption{{At: -inf, Machine: 0}} }},
		{"TaskFailureProb", func(o *Options) { o.TaskFailureProb = nan }},
		{"StragglerFraction", func(o *Options) { o.StragglerFraction = 7 }},
		{"StragglerFraction", func(o *Options) { o.StragglerFraction = nan }},
		{"StragglerSlowdown", func(o *Options) { o.StragglerSlowdown = nan }},
		{"SpeculationThreshold", func(o *Options) { o.SpeculationThreshold = inf }},
		{"BlockSize", func(o *Options) { o.BlockSize = nan }},
		{"PlannerBudget", func(o *Options) { o.PlannerBudget = nan }},
		{"ReplanWindow", func(o *Options) { o.ReplanWindow = inf }},
	}
	for _, tc := range cases {
		opts := Options{Topology: smallTopo(), BlockSize: 64e6, Seed: 1}
		tc.mut(&opts)
		_, err := newRuntime(opts, []*job.Job{shuffleJob(1)})
		if err == nil || !strings.Contains(err.Error(), tc.field+" is ") {
			t.Errorf("%s: err = %v, want one naming the field", tc.field, err)
		}
	}
}
