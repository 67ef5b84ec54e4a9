package planner

import (
	"testing"
)

func TestCostModelShape(t *testing.T) {
	if c := CostFull(0, 7, 0); c != 0 {
		t.Fatalf("CostFull with no jobs = %g, want 0", c)
	}
	if c := CostIncremental(0, 7, 0); c != 0 {
		t.Fatalf("CostIncremental with no jobs = %g, want 0", c)
	}
	// Incremental must be strictly cheaper than full for any non-trivial
	// problem: it runs one prioritization pass instead of J·(R−1)+1.
	for _, tc := range []struct{ j, r, s int }{
		{1, 1, 2}, {1, 7, 2}, {10, 7, 20}, {45, 7, 90}, {200, 20, 400},
	} {
		full, inc := CostFull(tc.j, tc.r, tc.s), CostIncremental(tc.j, tc.r, tc.s)
		if full <= 0 || inc <= 0 {
			t.Fatalf("J=%d R=%d S=%d: non-positive cost full=%g inc=%g", tc.j, tc.r, tc.s, full, inc)
		}
		if inc >= full {
			t.Fatalf("J=%d R=%d S=%d: incremental %g not cheaper than full %g", tc.j, tc.r, tc.s, inc, full)
		}
	}
	// Cost grows monotonically in every driver.
	if CostFull(20, 7, 40) <= CostFull(10, 7, 20) {
		t.Fatal("CostFull not monotone in job count")
	}
	if CostFull(10, 14, 20) <= CostFull(10, 7, 20) {
		t.Fatal("CostFull not monotone in rack count")
	}
	if CostFull(10, 7, 40) <= CostFull(10, 7, 20) {
		t.Fatal("CostFull not monotone in stage count")
	}
}

func TestReplanIncrementalKeepsWidths(t *testing.T) {
	c := testClusterModel()
	jobs := jobsOf(
		mkJob(1, 200, 300, 50, 100, 40),
		mkJob(2, 50, 80, 10, 30, 10),
		mkJob(3, 10, 5, 2, 8, 4),
	)
	widths := map[int]int{1: 3, 2: 2, 3: 1}
	p, err := ReplanIncremental(Input{Cluster: c, Jobs: jobs}, 25, nil, widths)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Assignments) != 3 {
		t.Fatalf("got %d assignments, want 3", len(p.Assignments))
	}
	for id, want := range widths {
		if got := len(p.Assignments[id].Racks); got != want {
			t.Errorf("job %d: %d racks, want width %d preserved", id, got, want)
		}
		if p.Assignments[id].Start < 25 {
			t.Errorf("job %d starts at %g, before now=25", id, p.Assignments[id].Start)
		}
	}
}

func TestReplanIncrementalClampsWidths(t *testing.T) {
	c := testClusterModel() // 7 racks
	jobs := jobsOf(mkJob(1, 50, 100, 10, 30, 30), mkJob(2, 50, 100, 10, 30, 30))
	// Job 1 asks for more racks than exist; job 2 has no width entry.
	p, err := ReplanIncremental(Input{Cluster: c, Jobs: jobs}, 0, nil, map[int]int{1: 99})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.Assignments[1].Racks); got != c.Racks {
		t.Fatalf("overwide job clamped to %d racks, want %d", got, c.Racks)
	}
	if got := len(p.Assignments[2].Racks); got != 1 {
		t.Fatalf("width-less job got %d racks, want default 1", got)
	}
}

func TestReplanIncrementalHonorsCommitments(t *testing.T) {
	c := testClusterModel()
	c.Racks = 2
	j := mkJob(1, 50, 100, 10, 30, 30)
	p, err := ReplanIncremental(Input{Cluster: c, Jobs: jobsOf(j)}, 50,
		[]Commitment{{Racks: []int{0}, Until: 1000}}, map[int]int{1: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := p.Assignments[1]
	if len(a.Racks) == 1 && a.Racks[0] == 1 {
		if a.Start < 50 {
			t.Fatalf("start %g before now", a.Start)
		}
	} else if a.Start < 1000 {
		t.Fatalf("job on committed rack starts at %g, want >= 1000", a.Start)
	}
}

func TestReplanIncrementalMatchesFullAtFixedWidths(t *testing.T) {
	// With widths equal to the full replan's chosen provisioning, a single
	// prioritization pass reproduces the same schedule.
	c := testClusterModel()
	jobs := jobsOf(
		mkJob(1, 200, 300, 50, 100, 40),
		mkJob(2, 50, 80, 10, 30, 10),
	)
	full, err := Replan(Input{Cluster: c, Jobs: jobs}, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	widths := make(map[int]int, len(full.Assignments))
	for id, a := range full.Assignments {
		widths[id] = len(a.Racks)
	}
	inc, err := ReplanIncremental(Input{Cluster: c, Jobs: jobs}, 10, nil, widths)
	if err != nil {
		t.Fatal(err)
	}
	//corralvet:ok floateq exact identity intended: incremental replan at identical widths must reproduce the full plan bit for bit
	if inc.Makespan != full.Makespan {
		t.Fatalf("incremental makespan %g != full %g at identical widths", inc.Makespan, full.Makespan)
	}
}
