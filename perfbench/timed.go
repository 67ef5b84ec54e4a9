package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	goruntime "runtime"
	"strconv"
	"syscall"
	"time"

	"corral/internal/planner"
	"corral/internal/runtime"
	"corral/internal/workload"
)

// repOut is what one rep process reports: the set-up and timed
// simulations of one input set.
type repOut struct {
	SetupS   []float64          `json:"setup_s"`
	SimWallS float64            `json:"sim_wall_s"`
	Events   uint64             `json:"events"`
	Digest   string             `json:"digest"`
	Tally    Tally              `json:"tally"`
	AvgJCT   map[string]float64 `json:"avg_jct_s"`
	Error    string             `json:"error,omitempty"`
}

// Set-ups shorter than setupBudget seconds are repeated, up to maxSetups
// times per rep, so that setup_s is a median of enough samples to be
// steady even where one set-up takes milliseconds.
const (
	setupBudget = 0.2
	maxSetups   = 5
)

// runRep is the body of a rep process: set up one input set, run the
// workload's timed simulations on it and check each Result. Each
// simulation gets fresh copies of the jobs and starts from a collected
// heap.
func runRep(w *Workload, seed int64) repOut {
	out := repOut{AvgJCT: map[string]float64{}}
	var spent float64
	var in Inputs
	var plan *planner.Plan
	for len(out.SetupS) < maxSetups && (len(out.SetupS) == 0 || spent < setupBudget) {
		var s float64
		var err error
		if in, plan, s, err = setup(w, seed); err != nil {
			out.Error = err.Error()
			return out
		}
		out.SetupS = append(out.SetupS, s)
		spent += s
	}
	var results []*runtime.Result
	for _, s := range w.Sims {
		if !s.Timed {
			continue
		}
		jobs := workload.Clone(in.Jobs)
		opts := in.options(s, plan, seed)
		goruntime.GC()
		start := time.Now()
		res, err := runtime.Run(opts, jobs)
		out.SimWallS += time.Since(start).Seconds()
		out.Tally.Submitted += len(in.Jobs)
		if err != nil {
			out.Error = fmt.Sprintf("%s: %v", s.Label, err)
			return out
		}
		t, err := checkResult(in.Jobs, res)
		out.Tally.Completed += t.Completed
		out.Tally.Failed += t.Failed
		out.Tally.Shed += t.Shed
		if err != nil {
			out.Error = fmt.Sprintf("%s: %v", s.Label, err)
			return out
		}
		out.Events += res.Events
		out.AvgJCT[s.Label] = res.AvgCompletionTime()
		results = append(results, res)
	}
	var err error
	if out.Digest, err = digest(results); err != nil {
		out.Error = err.Error()
	}
	return out
}

// rep runs one rep in a fresh process, so that each rep's peak resident
// memory is its own. It returns the rep's report and peak RSS in MB.
func rep(ctx context.Context, w *Workload, seed int64) (repOut, float64, error) {
	self, err := os.Executable()
	if err != nil {
		return repOut{}, 0, fmt.Errorf("locate own binary: %w", err)
	}
	cmd := exec.CommandContext(ctx, self, "-rep", "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return repOut{}, 0, fmt.Errorf("rep process: %w", err)
	}
	var out repOut
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		return repOut{}, 0, fmt.Errorf("rep output: %w", err)
	}
	if out.Error != "" {
		return out, 0, fmt.Errorf("%s", out.Error)
	}
	var rssMB float64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024 // ru_maxrss is in KiB on Linux
	}
	return out, rssMB, nil
}

// setStats is one input set's reps.
type setStats struct {
	seed   int64
	wall   []float64
	events uint64
	digest string
	jct    map[string]float64
}

// timedPass measures the end-to-end metrics. It cycles through the run's
// input sets, one rep process per visit, until every set has run once and
// the run's seconds are spent. Every rep's Results are checked, and the
// reps of one input set must digest identically.
func timedPass(ctx context.Context, w *Workload, seed int64, seconds float64) *report {
	r := &report{Correct: true}
	seeds := setSeeds(seed, w.Sets)
	sets := make([]setStats, len(seeds))
	var setupS, rss []float64
	start := time.Now()
	reps := 0
	// After the first pass over the sets, start another rep only if it
	// should end within the run's seconds.
	for ; reps < len(seeds) || time.Since(start).Seconds()*float64(reps+1)/float64(reps) <= seconds; reps++ {
		st := &sets[reps%len(seeds)]
		st.seed = seeds[reps%len(seeds)]
		out, rssMB, err := rep(ctx, w, st.seed)
		if err != nil {
			r.problem("input set %d (seed %d): %v", reps%len(seeds), st.seed, err)
			n := jobsPerRep(w, st.seed)
			r.Attempted += n
			r.Failed += n
			break
		}
		r.Attempted += out.Tally.Submitted
		r.Failed += out.Tally.Submitted - out.Tally.Completed
		if st.digest != "" && st.digest != out.Digest {
			r.problem("input set %d (seed %d): Result digest %s differs from the earlier rep's %s", reps%len(seeds), st.seed, out.Digest, st.digest)
		}
		st.digest, st.events, st.jct = out.Digest, out.Events, out.AvgJCT
		st.wall = append(st.wall, out.SimWallS)
		setupS = append(setupS, out.SetupS...)
		rss = append(rss, rssMB)
	}
	fmt.Printf("workload %s seed %d: %d reps over %d input sets in %.1f s\n", w.Name, seed, reps, len(seeds), time.Since(start).Seconds())

	var wallSum float64
	var events uint64
	jct := map[string]float64{}
	for i, st := range sets {
		if len(st.wall) == 0 {
			continue
		}
		wall := median(st.wall)
		fmt.Printf("input set %d seed %d: digest %s, %d events, median sim wall %.4g s of %d reps\n",
			i, st.seed, st.digest, st.events, wall, len(st.wall))
		wallSum += wall
		events += st.events
		for k, v := range st.jct {
			jct[k] += v / float64(len(sets))
		}
	}
	if y, ok := jct["yarn-cs"]; ok {
		fmt.Printf("jct_reduction_pct %.4f (simulated avg JCT over the input sets, 1 - %s/yarn-cs)\n",
			100*(1-jct[w.corral().Label]/y), w.corral().Label)
	}
	q1, _, q3 := quartiles(setupS)
	r.add("sim_wall_s", wallSum/float64(len(sets)), "s",
		fmt.Sprintf("mean over %d input sets of the median over their reps", len(sets)))
	r.add("events_per_s", ratio(float64(events), wallSum), "events/s", "total events / total sim wall")
	r.add("setup_s", median(setupS), "s", fmt.Sprintf("median of %d set-ups, q1 %.4g, q3 %.4g", len(setupS), q1, q3))
	q1, _, q3 = quartiles(rss)
	r.add("peak_rss_mb", median(rss), "MB", fmt.Sprintf("median of %d rep processes, q1 %.4g, q3 %.4g", len(rss), q1, q3))
	r.add("completed_frac", ratio(float64(r.Attempted-r.Failed), float64(r.Attempted)), "ratio",
		fmt.Sprintf("%d of %d submitted jobs completed", r.Attempted-r.Failed, r.Attempted))
	r.add("avg_jct_s", jct[w.corral().Label], "s",
		fmt.Sprintf("simulated avg JCT of %s, mean over the input sets (deterministic)", w.corral().Label))
	return r
}

// jobsPerRep is the number of job submissions one rep makes.
func jobsPerRep(w *Workload, seed int64) int {
	n := 0
	for _, s := range w.Sims {
		if s.Timed {
			n++
		}
	}
	return n * len(w.gen(seed).Jobs)
}
