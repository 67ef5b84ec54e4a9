package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"corral/internal/job"
	"corral/internal/runtime"
)

// Tally counts a Result's jobs by outcome.
type Tally struct {
	Submitted int
	Completed int
	Failed    int // terminal failures (attempt budgets)
	Shed      int // refused by admission control
}

// checkResult is the output check of one simulation: every submitted job
// appears exactly once in the Result as completed, failed or shed, every
// time is finite and ordered, and the Result's own counters agree with
// its job list.
func checkResult(jobs []*job.Job, res *runtime.Result) (Tally, error) {
	t := Tally{Submitted: len(jobs)}
	if res == nil {
		return t, fmt.Errorf("nil result")
	}
	submitted := make(map[int]bool, len(jobs))
	for _, j := range jobs {
		submitted[j.ID] = true
	}
	seen := make(map[int]bool, len(res.Jobs))
	for _, jr := range res.Jobs {
		if !submitted[jr.ID] {
			return t, fmt.Errorf("job %d in the result was never submitted", jr.ID)
		}
		if seen[jr.ID] {
			return t, fmt.Errorf("job %d appears twice in the result", jr.ID)
		}
		seen[jr.ID] = true
		if !finite(jr.Completion) || !finite(jr.CompletionTime) || jr.Completion < jr.Arrival || jr.Completion > res.Makespan {
			return t, fmt.Errorf("job %d has completion %v (arrival %v, makespan %v)", jr.ID, jr.Completion, jr.Arrival, res.Makespan)
		}
		switch {
		case !jr.Failed:
			t.Completed++
		case strings.HasPrefix(jr.FailReason, "shed"):
			t.Shed++
		default:
			t.Failed++
		}
	}
	for _, j := range jobs {
		if !seen[j.ID] {
			return t, fmt.Errorf("submitted job %d is missing from the result", j.ID)
		}
	}
	if t.Failed != res.FailedJobs || t.Shed != res.Shed {
		return t, fmt.Errorf("result counts %d failed and %d shed, its jobs show %d and %d", res.FailedJobs, res.Shed, t.Failed, t.Shed)
	}
	if res.Events == 0 || !finite(res.Makespan) || res.Makespan <= 0 {
		return t, fmt.Errorf("result has %d events and makespan %v", res.Events, res.Makespan)
	}
	return t, nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// digest is the sha256 of the canonical JSON encoding of the results, in
// order. encoding/json writes struct fields in declaration order and
// floats in shortest round-trip form, so equal Results give equal digests.
func digest(results []*runtime.Result) (string, error) {
	h := sha256.New()
	for _, r := range results {
		b, err := json.Marshal(r)
		if err != nil {
			return "", fmt.Errorf("encode result: %w", err)
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
