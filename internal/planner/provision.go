package planner

// Provisioning fast path. The §4.2 provisioning phase explores a chain of
// J·(R−1)+1 candidate allocations — start every job at one rack, then
// repeatedly widen the job with the longest current estimate — and keeps
// the candidate whose prioritization objective is smallest. Three
// structural facts make this chain cheap to evaluate at datacenter scale
// without changing a single output bit:
//
//  1. The chain itself never looks at the prioritization results: the job
//     to widen next is chosen purely from resp[i].At(rj[i]), which depends
//     only on the widths so far. The whole chain can therefore be
//     precomputed up front (buildChain, a max-heap on the current
//     estimates) and the candidate evaluations fanned out in fixed-size
//     blocks over a bounded work-stealing pool (the
//     experiments/parallel.go pattern), with a serial index-order argmin
//     afterwards — the strict `<` of the legacy loop — so the winner is
//     identical for any worker count.
//
//  2. Consecutive candidates differ in exactly one job's width, so a
//     worker walking a contiguous block of the chain can maintain the
//     prioritization sort order incrementally (one-element reposition
//     instead of a full J·log J re-sort), and a candidate's objective
//     needs no materialized rack sets at all: the start time of a job is
//     the k-th smallest rack-availability time, which depends only on the
//     sorted *multiset* of times — never on which rack holds one. The
//     evaluator therefore group-compresses rack availability into sorted
//     (time, count) runs, replacing the legacy scheduler's O(R)-per-job
//     flat merge and per-job rack-set sort with a few group operations.
//
//  3. The reposition moves the widened job from position i to position
//     lo, so every prioritization step before min(i, lo) replays exactly
//     as it did for the previous candidate. The evaluator checkpoints the
//     replay state every ckStride positions and resumes each candidate
//     from the last checkpoint at or before that point: the suffix is
//     replayed with the same float operations on the same values, so the
//     objective is bit-identical while about half of each replay is
//     skipped.
//
// The legacy serial loop (provisionSerial in provision_test.go: the
// scheduler evaluated once per candidate, exactly the pre-fast-path code)
// is the differential-test oracle — the MaxMinFair-vs-GroupedMaxMin
// playbook: TestProvisionFastMatchesSerial proves the two pick the same
// widths across seeded random workloads, objectives and commitments, and
// at the scale suite's 2k-cell shape.
//
// Determinism obligations: candidate objectives are pure functions of
// (jobs, cluster, widths). Block geometry is a fixed candidate count, so
// the work done — and the Work counters that report it — is a pure
// function of the input too; worker scheduling feeds neither the values,
// the reduction order nor the counters.

import (
	"container/heap"
	goruntime "runtime"
	"sort"
	"sync"
	"sync/atomic"

	"corral/internal/job"
	"corral/internal/model"
)

const (
	// blockCandidates is the number of consecutive chain candidates one
	// block evaluates with one evaluator: large enough to amortize the
	// block-entry sort and full replay, small enough that the 2k cell
	// (~9.8k candidates) still splits into dozens of blocks to steal.
	blockCandidates = 256
	// ckStride is the checkpoint spacing B of the suffix replay: the
	// evaluator keeps the replay state before every B-th position.
	ckStride = 16
)

// Work counts the provisioning phase's work. Every field is a pure
// function of the planner input — identical for any worker count — so the
// counters explain a speedup without timing anything.
type Work struct {
	Chain             int64 // widening steps precomputed, J·(R−1)
	Candidates        int64 // candidate allocations evaluated, Chain+1
	PositionsReplayed int64 // prioritization steps run over all candidates
}

// planWorkersBound is the configured provisioning worker bound; <= 0
// means GOMAXPROCS.
var planWorkersBound atomic.Int64

// SetWorkers bounds the worker pool the provisioning fast path fans
// candidate evaluations over. n <= 0 restores the default (GOMAXPROCS);
// n == 1 forces serial evaluation. The setting changes wall-clock only,
// never results or Work counters (TestProvisionWorkerCountInvariance).
func SetWorkers(n int) { planWorkersBound.Store(int64(n)) }

// Workers reports the current effective provisioning worker bound.
func Workers() int {
	if n := int(planWorkersBound.Load()); n > 0 {
		return n
	}
	return goruntime.GOMAXPROCS(0)
}

// parallelFor runs fn(0..n-1) across the provisioning worker pool. fn
// must confine its writes to block i's own index-addressed state; any
// shared reduction belongs after parallelFor returns (the same contract
// corralvet's sweepsafe check enforces on experiments.parallelFor).
func parallelFor(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next int64 = -1
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// widenHeap is a max-heap of the jobs still eligible for widening, keyed
// on (current estimate descending, index ascending): its top is exactly
// the job the legacy scan picks with its strict `>` and first index on
// ties.
type widenHeap struct {
	idx []int
	lat []float64 // lat[i] = resp[i].At(rj[i]), indexed by job
}

func (h *widenHeap) Len() int { return len(h.idx) }
func (h *widenHeap) Less(a, b int) bool {
	x, y := h.idx[a], h.idx[b]
	// Exact comparison on purpose: the legacy scan's strict `>` keeps the
	// first index only on bit-equal estimates.
	if h.lat[x] != h.lat[y] {
		return h.lat[x] > h.lat[y]
	}
	return x < y
}
func (h *widenHeap) Swap(a, b int) { h.idx[a], h.idx[b] = h.idx[b], h.idx[a] }
func (h *widenHeap) Push(x any)    { h.idx = append(h.idx, x.(int)) }
func (h *widenHeap) Pop() any {
	n := len(h.idx) - 1
	x := h.idx[n]
	h.idx = h.idx[:n]
	return x
}

// buildChain replays the widening rule without evaluating any candidate:
// chain[t] is the job widened to produce candidate t+1 (candidate 0 is
// all-ones). The rule is verbatim the legacy loop's — widen the job with
// the longest current estimate among those not yet cluster-wide, first
// index on ties — so the precomputed chain visits exactly the allocations
// the serial path visits, in the same order. A job leaves the heap when
// it spans the cluster, or when its estimate fails the scan's `> -1`
// entry test (which a widen-free job can never pass later).
func buildChain(resp []model.ResponseFunc, J, R int) []int {
	chain := make([]int, 0, J*(R-1))
	rj := make([]int, J)
	h := &widenHeap{idx: make([]int, 0, J), lat: make([]float64, J)}
	for i := range rj {
		rj[i] = 1
		if h.lat[i] = resp[i].At(1); R > 1 && h.lat[i] > -1 {
			h.idx = append(h.idx, i)
		}
	}
	heap.Init(h)
	for len(h.idx) > 0 {
		w := h.idx[0]
		rj[w]++
		chain = append(chain, w)
		if rj[w] < R {
			if h.lat[w] = resp[w].At(rj[w]); h.lat[w] > -1 {
				heap.Fix(h, 0)
				continue
			}
		}
		heap.Pop(h)
	}
	return chain
}

// fGroup is a maximal run of racks sharing one availability time in the
// sorted rack-availability sequence.
type fGroup struct {
	f float64 // availability time
	n int     // racks carrying it
}

// groupsFromInitF compresses an initial rack-availability vector into
// sorted (time, count) runs. nil (New: every rack free at 0) is a single
// group spanning the cluster.
func groupsFromInitF(initF []float64, R int) []fGroup {
	if initF == nil {
		return []fGroup{{f: 0, n: R}}
	}
	fs := append([]float64(nil), initF...)
	sort.Float64s(fs)
	groups := make([]fGroup, 0, 8)
	for _, f := range fs {
		//corralvet:ok floateq exact identity intended: bit-equal availability times collapse into one group; any difference, however small, starts a new run
		if n := len(groups); n > 0 && groups[n-1].f == f {
			groups[n-1].n++
		} else {
			groups = append(groups, fGroup{f: f, n: 1})
		}
	}
	return groups
}

// jobLess is the prioritization order (Fig 4) shared by the legacy
// scheduler's full sort, the evaluator's block-entry sort and the
// incremental reposition: online orders by arrival first; both scenarios
// then take widest-first, longest-first, with the job ID as the final
// tie-break. The ID step makes this a strict total order, so any valid
// sort — full, stable or binary-search reinsertion — produces the one
// identical permutation.
func jobLess(online bool, jobs []*job.Job, resp []model.ResponseFunc, rj []int, a, b int) bool {
	if online {
		//corralvet:ok floateq exact identity intended: sort key comparison — any arrival difference, however small, orders the jobs; ties fall through
		if jobs[a].Arrival != jobs[b].Arrival {
			return jobs[a].Arrival < jobs[b].Arrival
		}
	}
	if rj[a] != rj[b] {
		return rj[a] > rj[b]
	}
	la, lb := resp[a].At(rj[a]), resp[b].At(rj[b])
	//corralvet:ok floateq exact identity intended: sort key comparison — any latency difference, however small, orders the jobs; ties fall through to the ID tie-break
	if la != lb {
		return la > lb
	}
	return jobs[a].ID < jobs[b].ID
}

// evaluator computes one candidate objective per call, reusing its
// scratch so steady-state evaluation allocates nothing (pinned by
// TestEvaluatorSteadyStateZeroAlloc and corralvet's hotalloc check via
// the //corral:hotpath markers).
type evaluator struct {
	jobs   []*job.Job
	resp   []model.ResponseFunc
	online bool
	rj     []int
	order  []int    // job indices in prioritization order, maintained incrementally
	groups []fGroup // scratch: rack availability as sorted (time, count) runs

	// Suffix replay. Checkpoint c is the replay state before position
	// c·ckStride: its live runs in ckRuns[c·ckWidth:][:ckLen[c]], plus the
	// makespan and completion sum so far. Checkpoint 0 is the initial
	// state and never changes. Every checkpoint at or before dirty is
	// valid for the current order and widths.
	dirty      int
	ckWidth    int // live runs never exceed min(R, len(initGroups)+J)
	ckRuns     []fGroup
	ckLen      []int
	ckMakespan []float64
	ckSum      []float64
	replayed   int64 // prioritization positions replayed since reset, for Work
}

func newEvaluator(in Input, resp []model.ResponseFunc, initGroups []fGroup) *evaluator {
	J := len(in.Jobs)
	width := len(initGroups) + J
	if width > in.Cluster.Racks {
		width = in.Cluster.Racks
	}
	nck := (J-1)/ckStride + 1 // checkpoints at positions 0, B, 2B, … < J
	e := &evaluator{
		jobs:       in.Jobs,
		resp:       resp,
		online:     in.Objective == MinimizeAvgCompletion,
		rj:         make([]int, J),
		order:      make([]int, J),
		groups:     make([]fGroup, len(initGroups)+J+1),
		ckWidth:    width,
		ckRuns:     make([]fGroup, nck*width),
		ckLen:      make([]int, nck),
		ckMakespan: make([]float64, nck),
		ckSum:      make([]float64, nck),
	}
	e.ckLen[0] = copy(e.ckRuns, initGroups)
	return e
}

// reset seeds the evaluator at the candidate with widths rj: one full
// stable sort at block entry; widen maintains the order incrementally
// from there. Every checkpoint but the initial one is invalidated, and the
// replay count restarts.
func (e *evaluator) reset(rj []int) {
	copy(e.rj, rj)
	for i := range e.order {
		e.order[i] = i
	}
	sort.SliceStable(e.order, func(x, y int) bool {
		return jobLess(e.online, e.jobs, e.resp, e.rj, e.order[x], e.order[y])
	})
	e.dirty = 0
	e.replayed = 0
}

// widen applies rj[w]++ and repositions w in the prioritization order: a
// one-element deletion plus binary-search reinsertion (an O(J) memmove)
// in place of the full J·log J re-sort — consecutive provisioning
// candidates differ in exactly this one key, and jobLess is a strict
// total order, so the repositioned sequence is the unique sorted
// permutation the full sort would produce. Positions before min(i, lo)
// keep their jobs and widths, so the checkpoints up to there stay valid.
//
//corral:hotpath widen runs once per provisioning candidate, J·(R−1) times per plan.
func (e *evaluator) widen(w int) {
	e.rj[w]++
	order := e.order
	J := len(order)
	i := 0
	for order[i] != w {
		i++
	}
	copy(order[i:], order[i+1:])
	rest := order[:J-1]
	lo, hi := 0, len(rest)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if jobLess(e.online, e.jobs, e.resp, e.rj, w, rest[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	copy(order[lo+1:], order[lo:J-1])
	order[lo] = w
	e.dirty = min(e.dirty, i, lo)
}

// objective runs one prioritization pass over the current widths and
// returns the candidate's objective value, bit-identical to
// scheduler.run(rj).objective(in.Objective).
//
// Bit-identity argument: a job's start time is the k-th smallest rack
// availability (legacy: rackF[k-1].f), which depends only on the sorted
// multiset of availability times, never on which rack carries one — and
// the k earliest racks all adopt the same finish time. So the multiset
// evolves identically whether tracked as the legacy flat (time, rackID)
// sequence or as compressed (time, count) runs, and rack identities can
// be dropped entirely: finish = max(start, arrival) + lat, makespan and
// the completion sum accumulate over the same job order with the same
// float operations. Equal-time runs merge; where the legacy flat list
// interleaves equal-time racks by ID, any prefix drawn from the combined
// run removes the same multiset of times regardless of the interleaving.
// Resuming from a checkpoint restores exactly those runs, makespan and
// sum, so the suffix repeats the full replay's operations on the same
// values; only the runs' offset in the scratch buffer differs.
//
//corral:hotpath objective runs once per provisioning candidate, J·(R−1)+1 times per plan.
func (e *evaluator) objective() float64 {
	J := len(e.order)
	c := e.dirty / ckStride
	from := c * ckStride
	groups := e.groups[:e.ckLen[c]]
	copy(groups, e.ckRuns[c*e.ckWidth:])
	head := 0 // groups[head:] is live; the prefix is consumed scratch
	makespan, sum := e.ckMakespan[c], e.ckSum[c]
	for p := from; p < J; p++ {
		if p%ckStride == 0 && p > from {
			c = p / ckStride
			e.ckLen[c] = copy(e.ckRuns[c*e.ckWidth:(c+1)*e.ckWidth], groups[head:])
			e.ckMakespan[c], e.ckSum[c] = makespan, sum
		}
		idx := e.order[p]
		k := e.rj[idx]
		lat := e.resp[idx].At(k)
		arr := 0.0
		if e.online {
			arr = e.jobs[idx].Arrival
		}
		// start = availability of the k-th earliest rack: walk the runs.
		need := k
		gi := head
		for groups[gi].n < need {
			need -= groups[gi].n
			gi++
		}
		start := groups[gi].f
		if arr > start {
			start = arr
		}
		finish := start + lat
		// Consume the k earliest racks: drop whole runs, shrink the last.
		groups[gi].n -= need
		if groups[gi].n == 0 {
			gi++
		}
		head = gi
		// Reinsert them as one run at finish, keeping groups sorted.
		lo, hi := head, len(groups)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if groups[mid].f > finish {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		//corralvet:ok floateq exact identity intended: a run carrying the bit-identical finish time absorbs the reassigned racks; rack identities never reach the objective
		if lo > head && groups[lo-1].f == finish {
			groups[lo-1].n += k
		} else if head > 0 {
			// Slide the (short) live prefix left into the consumed slot.
			copy(groups[head-1:], groups[head:lo])
			groups[lo-1] = fGroup{f: finish, n: k}
			head--
		} else {
			// No consumed slot free: grow at the tail.
			groups = groups[:len(groups)+1]
			copy(groups[lo+1:], groups[lo:len(groups)-1])
			groups[lo] = fGroup{f: finish, n: k}
		}
		if finish > makespan {
			makespan = finish
		}
		sum += finish - arr
	}
	e.replayed += int64(J - from)
	e.dirty = J
	if e.online {
		return sum / float64(len(e.jobs))
	}
	return makespan
}

// provisionFast explores the widening chain and returns the best widths
// vector, adding its work to in.Work when set. It is the
// parallel/incremental engine: precompute the chain, fan fixed-size
// contiguous candidate blocks over the worker pool (each block on an
// evaluator no other block is using), then take the serial index-order argmin — the
// legacy loop's strict `<` update rule, so the earliest candidate wins
// ties and the result is worker-count-invariant.
func provisionFast(in Input, resp []model.ResponseFunc, initF []float64) []int {
	J, R := len(in.Jobs), in.Cluster.Racks
	chain := buildChain(resp, J, R)
	C := len(chain) + 1
	initGroups := groupsFromInitF(initF, R)
	objs := make([]float64, C)
	nb := (C + blockCandidates - 1) / blockCandidates
	replayed := make([]int64, nb)

	// starts[b·J:][:J] is block b's entry widths, from one serial pass
	// over the chain rather than a per-block replay of its whole prefix.
	starts := make([]int, nb*J)
	for i := 0; i < J; i++ {
		starts[i] = 1
	}
	for b := 1; b < nb; b++ {
		rj := starts[b*J : (b+1)*J]
		copy(rj, starts[(b-1)*J:])
		for _, w := range chain[(b-1)*blockCandidates : b*blockCandidates] {
			rj[w]++
		}
	}

	// Evaluators are recycled across blocks: reset rewrites every field a
	// candidate reads, so reuse is invisible to the results and counters.
	pool := sync.Pool{New: func() any { return newEvaluator(in, resp, initGroups) }}

	// Every objs[t] is a pure function of candidate t, and each block's
	// replay count a pure function of its fixed bounds.
	parallelFor(nb, func(b int) {
		lo, hi := b*blockCandidates, min((b+1)*blockCandidates, C)
		out := objs[lo:hi] // this block's own slots
		ev := pool.Get().(*evaluator)
		defer pool.Put(ev)
		ev.reset(starts[b*J : (b+1)*J])
		out[0] = ev.objective()
		for t := lo + 1; t < hi; t++ {
			ev.widen(chain[t-1])
			out[t-lo] = ev.objective()
		}
		replayed[b] = ev.replayed
	})

	best := 0
	for t := 1; t < C; t++ {
		if objs[t] < objs[best] {
			best = t
		}
	}
	bestRj := make([]int, J)
	for i := range bestRj {
		bestRj[i] = 1
	}
	for t := 0; t < best; t++ {
		bestRj[chain[t]]++
	}
	if w := in.Work; w != nil {
		w.Chain += int64(len(chain))
		w.Candidates += int64(C)
		for _, r := range replayed {
			w.PositionsReplayed += r
		}
	}
	return bestRj
}
