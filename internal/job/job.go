// Package job models data-parallel jobs: simple MapReduce jobs described
// by the paper's 5-tuple ⟨D^I, D^S, D^O, N^M, N^R⟩ (§4.3) and general
// DAG-structured jobs (Hive/Tez style) whose every stage is itself modeled
// as a MapReduce job, composed along the DAG's critical path.
//
// Determinism obligations: jobs are plain data; all derived quantities
// (critical paths, totals) are pure functions of the job definition.
package job

import (
	"fmt"
	"math"
)

// Profile is the paper's per-(stage-)job characterization: the 5-tuple
// plus the average per-task processing rates B_M and B_R estimated from
// previous runs of the same recurring job.
type Profile struct {
	InputBytes   float64 // D^I: bytes read by the map phase
	ShuffleBytes float64 // D^S: bytes moved map→reduce
	OutputBytes  float64 // D^O: bytes written by the reduce phase
	MapTasks     int     // N^M
	ReduceTasks  int     // N^R
	MapRate      float64 // B_M: bytes/sec one map task processes
	ReduceRate   float64 // B_R: bytes/sec one reduce task processes
}

// Validate reports whether the profile is usable. Every float field must
// be finite: NaN slips through each ordered comparison below.
func (p Profile) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"InputBytes", p.InputBytes}, {"ShuffleBytes", p.ShuffleBytes}, {"OutputBytes", p.OutputBytes},
		{"MapRate", p.MapRate}, {"ReduceRate", p.ReduceRate},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("job: %s = %g, must be finite", f.name, f.v)
		}
	}
	switch {
	case p.InputBytes < 0 || p.ShuffleBytes < 0 || p.OutputBytes < 0:
		return fmt.Errorf("job: negative data size in profile %+v", p)
	case p.MapTasks <= 0:
		return fmt.Errorf("job: MapTasks = %d, must be positive", p.MapTasks)
	case p.ReduceTasks < 0:
		return fmt.Errorf("job: ReduceTasks = %d, must be >= 0", p.ReduceTasks)
	case p.MapRate <= 0:
		return fmt.Errorf("job: MapRate = %g, must be positive", p.MapRate)
	case p.ReduceTasks > 0 && p.ReduceRate <= 0:
		return fmt.Errorf("job: ReduceRate = %g with %d reduce tasks", p.ReduceRate, p.ReduceTasks)
	}
	return nil
}

// Slots returns the maximum parallelism of one stage: the larger of its
// map and reduce task counts. This is the "number of slots requested"
// quantity plotted in Fig 2.
func (p Profile) Slots() int {
	if p.ReduceTasks > p.MapTasks {
		return p.ReduceTasks
	}
	return p.MapTasks
}

// Stage is one vertex in a job's DAG.
type Stage struct {
	Name    string
	Profile Profile
	// Upstream lists the stage indices whose output this stage consumes.
	// Source stages (reading job input from the DFS) have none.
	Upstream []int
}

// Job is a (possibly DAG-structured) data-parallel job.
type Job struct {
	ID      int
	Name    string
	Arrival float64 // submission time, seconds (0 in the batch scenario)
	Stages  []Stage // topologically ordered: edges go low index → high
	AdHoc   bool    // true for jobs the planner cannot see (§6.4)

	// Recurring marks jobs with predictable characteristics. The planner
	// only plans Recurring (or otherwise known-in-advance) jobs.
	Recurring bool
}

// MapReduce builds a single-stage job from a profile.
func MapReduce(id int, name string, p Profile) *Job {
	return &Job{
		ID:        id,
		Name:      name,
		Recurring: true,
		Stages:    []Stage{{Name: "mr", Profile: p}},
	}
}

// Validate checks profile validity and that the DAG is topologically
// ordered with in-range upstream references.
func (j *Job) Validate() error {
	if len(j.Stages) == 0 {
		return fmt.Errorf("job %d: no stages", j.ID)
	}
	if math.IsNaN(j.Arrival) || math.IsInf(j.Arrival, 0) || j.Arrival < 0 {
		return fmt.Errorf("job %d: Arrival = %g, must be finite and non-negative", j.ID, j.Arrival)
	}
	for i, s := range j.Stages {
		if err := s.Profile.Validate(); err != nil {
			return fmt.Errorf("job %d stage %d: %w", j.ID, i, err)
		}
		for _, u := range s.Upstream {
			if u < 0 || u >= i {
				return fmt.Errorf("job %d stage %d: upstream %d not earlier in topological order", j.ID, i, u)
			}
		}
	}
	return nil
}

// ValidateAll checks a job list as one planning input: no nil entry, every
// job valid, and unique IDs — the planner's prioritization order breaks
// its final tie on the ID, and plans are keyed by it.
func ValidateAll(jobs []*Job) error {
	seen := make(map[int]int, len(jobs))
	for i, j := range jobs {
		if j == nil {
			return fmt.Errorf("job: entry %d is nil", i)
		}
		if err := j.Validate(); err != nil {
			return err
		}
		if first, dup := seen[j.ID]; dup {
			return fmt.Errorf("job: duplicate ID %d (entries %d and %d)", j.ID, first, i)
		}
		seen[j.ID] = i
	}
	return nil
}

// IsDAG reports whether the job has more than one stage.
func (j *Job) IsDAG() bool { return len(j.Stages) > 1 }

// InputBytes returns the bytes the job reads from the DFS: the sum over
// source stages of their input sizes.
func (j *Job) InputBytes() float64 {
	t := 0.0
	for _, s := range j.Stages {
		if len(s.Upstream) == 0 {
			t += s.Profile.InputBytes
		}
	}
	return t
}

// ShuffleBytes returns total intermediate bytes across all stages.
func (j *Job) ShuffleBytes() float64 {
	t := 0.0
	for _, s := range j.Stages {
		t += s.Profile.ShuffleBytes
	}
	return t
}

// OutputBytes returns the bytes written by sink stages (stages no other
// stage consumes).
func (j *Job) OutputBytes() float64 {
	consumed := make([]bool, len(j.Stages))
	for _, s := range j.Stages {
		for _, u := range s.Upstream {
			consumed[u] = true
		}
	}
	t := 0.0
	for i, s := range j.Stages {
		if !consumed[i] {
			t += s.Profile.OutputBytes
		}
	}
	return t
}

// Slots returns the job's requested slot count: the maximum stage
// parallelism over the DAG.
func (j *Job) Slots() int {
	m := 0
	for _, s := range j.Stages {
		if v := s.Profile.Slots(); v > m {
			m = v
		}
	}
	return m
}

// TotalTasks returns the number of tasks across all stages.
func (j *Job) TotalTasks() int {
	t := 0
	for _, s := range j.Stages {
		t += s.Profile.MapTasks + s.Profile.ReduceTasks
	}
	return t
}

// CriticalPath returns the stage indices of the heaviest source→sink path,
// where each stage's weight is given by weight(stageIndex). This is the
// path P used to compose DAG latency in §4.3: L_j(r) = Σ_{s∈P} L_s(r).
func (j *Job) CriticalPath(weight func(stage int) float64) []int {
	n := len(j.Stages)
	best := make([]float64, n)
	prev := make([]int, n)
	for i := range prev {
		prev[i] = -1
	}
	for i := 0; i < n; i++ {
		best[i] = weight(i)
		for _, u := range j.Stages[i].Upstream {
			if cand := best[u] + weight(i); cand > best[i] {
				best[i] = cand
				prev[i] = u
			}
		}
	}
	// Find the heaviest sink.
	consumed := make([]bool, n)
	for _, s := range j.Stages {
		for _, u := range s.Upstream {
			consumed[u] = true
		}
	}
	end, endW := -1, -1.0
	for i := 0; i < n; i++ {
		if consumed[i] {
			continue
		}
		if best[i] > endW {
			end, endW = i, best[i]
		}
	}
	var path []int
	for v := end; v != -1; v = prev[v] {
		path = append(path, v)
	}
	// Reverse to source→sink order.
	for l, r := 0, len(path)-1; l < r; l, r = l+1, r-1 {
		path[l], path[r] = path[r], path[l]
	}
	return path
}
