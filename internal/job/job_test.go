package job

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func validProfile() Profile {
	return Profile{
		InputBytes:   1e9,
		ShuffleBytes: 5e8,
		OutputBytes:  2e8,
		MapTasks:     10,
		ReduceTasks:  4,
		MapRate:      1e8,
		ReduceRate:   1e8,
	}
}

func TestProfileValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Profile)
		ok     bool
	}{
		{"valid", func(p *Profile) {}, true},
		{"negative input", func(p *Profile) { p.InputBytes = -1 }, false},
		{"negative shuffle", func(p *Profile) { p.ShuffleBytes = -1 }, false},
		{"negative output", func(p *Profile) { p.OutputBytes = -1 }, false},
		{"zero maps", func(p *Profile) { p.MapTasks = 0 }, false},
		{"negative reduces", func(p *Profile) { p.ReduceTasks = -1 }, false},
		{"zero reduces ok (map-only)", func(p *Profile) { p.ReduceTasks = 0 }, true},
		{"zero map rate", func(p *Profile) { p.MapRate = 0 }, false},
		{"zero reduce rate with reducers", func(p *Profile) { p.ReduceRate = 0 }, false},
		{"zero reduce rate map-only", func(p *Profile) { p.ReduceRate = 0; p.ReduceTasks = 0 }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := validProfile()
			tc.mutate(&p)
			err := p.Validate()
			if tc.ok && err != nil {
				t.Fatalf("Validate = %v, want nil", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("Validate = nil, want error")
			}
		})
	}
}

// TestProfileRejectsNonFinite: NaN passes every ordered check, so each
// float field needs its own finiteness test, and the error names it.
func TestProfileRejectsNonFinite(t *testing.T) {
	fields := map[string]func(*Profile) *float64{
		"InputBytes":   func(p *Profile) *float64 { return &p.InputBytes },
		"ShuffleBytes": func(p *Profile) *float64 { return &p.ShuffleBytes },
		"OutputBytes":  func(p *Profile) *float64 { return &p.OutputBytes },
		"MapRate":      func(p *Profile) *float64 { return &p.MapRate },
		"ReduceRate":   func(p *Profile) *float64 { return &p.ReduceRate },
	}
	for name, field := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			p := validProfile()
			p.ReduceTasks = 0 // map-only: ReduceRate is otherwise unchecked
			*field(&p) = v
			if err := p.Validate(); err == nil || !strings.Contains(err.Error(), name) {
				t.Errorf("%s = %g: Validate = %v, want an error naming %s", name, v, err, name)
			}
		}
	}
}

func TestProfileSlots(t *testing.T) {
	p := validProfile()
	if got := p.Slots(); got != 10 {
		t.Fatalf("Slots = %d, want 10 (maps dominate)", got)
	}
	p.ReduceTasks = 50
	if got := p.Slots(); got != 50 {
		t.Fatalf("Slots = %d, want 50 (reduces dominate)", got)
	}
}

func TestMapReduceConstructor(t *testing.T) {
	j := MapReduce(3, "wordcount", validProfile())
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
	if j.IsDAG() {
		t.Fatal("single-stage job reported as DAG")
	}
	if !j.Recurring {
		t.Fatal("MapReduce constructor should mark the job recurring")
	}
	if j.InputBytes() != 1e9 || j.ShuffleBytes() != 5e8 || j.OutputBytes() != 2e8 {
		t.Fatalf("aggregate bytes wrong: %g %g %g", j.InputBytes(), j.ShuffleBytes(), j.OutputBytes())
	}
	if j.Slots() != 10 {
		t.Fatalf("Slots = %d, want 10", j.Slots())
	}
	if j.TotalTasks() != 14 {
		t.Fatalf("TotalTasks = %d, want 14", j.TotalTasks())
	}
}

// diamond builds a 4-stage diamond DAG: 0 -> {1,2} -> 3.
func diamond() *Job {
	p := validProfile()
	return &Job{
		ID:   1,
		Name: "diamond",
		Stages: []Stage{
			{Name: "extract", Profile: p},
			{Name: "left", Profile: p, Upstream: []int{0}},
			{Name: "right", Profile: p, Upstream: []int{0}},
			{Name: "join", Profile: p, Upstream: []int{1, 2}},
		},
	}
}

func TestDAGValidate(t *testing.T) {
	j := diamond()
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
	// Forward reference breaks topological order.
	j.Stages[1].Upstream = []int{3}
	if err := j.Validate(); err == nil {
		t.Fatal("forward upstream reference not rejected")
	}
	// Self reference.
	j.Stages[1].Upstream = []int{1}
	if err := j.Validate(); err == nil {
		t.Fatal("self reference not rejected")
	}
	empty := &Job{ID: 2}
	if err := empty.Validate(); err == nil {
		t.Fatal("empty job not rejected")
	}
	for _, arr := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, -46.47, math.Copysign(1e-300, -1)} {
		j := diamond()
		j.Arrival = arr
		if err := j.Validate(); err == nil || !strings.Contains(err.Error(), "Arrival") {
			t.Fatalf("Arrival %g: Validate = %v, want an error naming Arrival", arr, err)
		}
	}
}

func TestValidateAll(t *testing.T) {
	mk := func(id int) *Job { return MapReduce(id, "j", validProfile()) }
	bad := mk(3)
	bad.Stages[0].Profile.MapTasks = 0
	cases := []struct {
		name string
		jobs []*Job
		want string // error substring; "" = valid
	}{
		{"empty", nil, ""},
		{"distinct", []*Job{mk(1), mk(2), mk(3)}, ""},
		{"nil entry", []*Job{mk(1), nil}, "entry 1 is nil"},
		{"only nil", []*Job{nil}, "entry 0 is nil"},
		{"duplicate ID", []*Job{mk(7), mk(1), mk(7)}, "duplicate ID 7 (entries 0 and 2)"},
		{"invalid job", []*Job{mk(1), bad}, "MapTasks"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateAll(tc.jobs)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("ValidateAll = %v, want nil", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("ValidateAll = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

func TestDAGAggregates(t *testing.T) {
	j := diamond()
	// Only stage 0 is a source.
	if got := j.InputBytes(); got != 1e9 {
		t.Fatalf("InputBytes = %g, want 1e9", got)
	}
	// Only stage 3 is a sink.
	if got := j.OutputBytes(); got != 2e8 {
		t.Fatalf("OutputBytes = %g, want 2e8", got)
	}
	if got := j.ShuffleBytes(); got != 4*5e8 {
		t.Fatalf("ShuffleBytes = %g, want %g", got, 4*5e8)
	}
}

func TestCriticalPathDiamond(t *testing.T) {
	j := diamond()
	// Make stage 2 heavier than stage 1: critical path 0-2-3.
	w := func(s int) float64 {
		if s == 2 {
			return 10
		}
		return 1
	}
	path := j.CriticalPath(w)
	want := []int{0, 2, 3}
	if len(path) != len(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestCriticalPathSingleStage(t *testing.T) {
	j := MapReduce(1, "x", validProfile())
	path := j.CriticalPath(func(int) float64 { return 5 })
	if len(path) != 1 || path[0] != 0 {
		t.Fatalf("path = %v, want [0]", path)
	}
}

func TestCriticalPathChain(t *testing.T) {
	p := validProfile()
	j := &Job{ID: 1, Stages: []Stage{
		{Name: "a", Profile: p},
		{Name: "b", Profile: p, Upstream: []int{0}},
		{Name: "c", Profile: p, Upstream: []int{1}},
	}}
	path := j.CriticalPath(func(int) float64 { return 1 })
	if len(path) != 3 {
		t.Fatalf("chain critical path = %v, want all 3 stages", path)
	}
}

func TestCriticalPathDisconnectedSinks(t *testing.T) {
	p := validProfile()
	// Two independent stages; heaviest one is the path.
	j := &Job{ID: 1, Stages: []Stage{
		{Name: "a", Profile: p},
		{Name: "b", Profile: p},
	}}
	path := j.CriticalPath(func(s int) float64 { return float64(s + 1) })
	if len(path) != 1 || path[0] != 1 {
		t.Fatalf("path = %v, want [1]", path)
	}
}

// Property: the critical path weight is an upper bound over every
// individual stage weight, and the path is a valid chain in the DAG.
func TestQuickCriticalPath(t *testing.T) {
	f := func(weights []float64) bool {
		j := diamond()
		w := func(s int) float64 {
			if s < len(weights) {
				return math.Abs(weights[s]) + 0.001
			}
			return 1
		}
		path := j.CriticalPath(w)
		if len(path) == 0 {
			return false
		}
		sum := 0.0
		for i, s := range path {
			sum += w(s)
			if i > 0 {
				// Consecutive path stages must be connected.
				connected := false
				for _, u := range j.Stages[s].Upstream {
					if u == path[i-1] {
						connected = true
					}
				}
				if !connected {
					return false
				}
			}
		}
		for s := range j.Stages {
			if w(s) > sum+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
