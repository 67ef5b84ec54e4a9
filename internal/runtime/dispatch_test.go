package runtime

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"corral/internal/job"
	"corral/internal/planner"
	"corral/internal/topology"
	"corral/internal/trace"
)

// dispatchTopo: 8 racks x 4 machines x 2 slots, wide enough that a
// rack-confined job leaves most racks out of a dispatch's candidate set.
func dispatchTopo() topology.Config {
	cfg := smallTopo()
	cfg.Racks = 8
	return cfg
}

// dispatchJobs returns n shuffle jobs arriving 4 s apart, so the set of
// runnable jobs (and the racks they allow) changes throughout the run.
func dispatchJobs(n int) []*job.Job {
	jobs := make([]*job.Job, n)
	for i := range jobs {
		jobs[i] = shuffleJob(i + 1)
		jobs[i].Arrival = float64(i) * 4
	}
	return jobs
}

type dispatchScenario struct {
	name string
	opts Options
	jobs []*job.Job
	// check asserts what the scenario must show (completion, rack
	// confinement, a replan, blacklisting), so it cannot pass vacuously.
	check func(t *testing.T, res *Result, probe *countingProbe)
}

func dispatchScenarios(t *testing.T) []dispatchScenario {
	topo := dispatchTopo()
	jobs := dispatchJobs(16)
	plan := planFor(t, topo, jobs, planner.MinimizeMakespan)

	mixed := dispatchJobs(16)
	for _, j := range mixed[12:] {
		j.AdHoc, j.Recurring = true, false
	}
	mixedPlan := planFor(t, topo, mixed[:12], planner.MinimizeMakespan)

	// Planned jobs alternate between racks 0 and 1. Losing three of rack
	// 0's four machines drops the constraints of its jobs (allowedRacks =
	// nil mid-run) and triggers a budgeted replan, whose plan lands only
	// after its modelled cost: until then unconstrained and rack-1 jobs
	// are runnable side by side. The crash rate blacklists machines.
	faulty := dispatchJobs(6)
	pinned := &planner.Plan{Objective: planner.MinimizeMakespan, Assignments: map[int]*planner.Assignment{}}
	for i, j := range faulty {
		pinned.Assignments[j.ID] = &planner.Assignment{JobID: j.ID, Racks: []int{i % 2}, Start: j.Arrival, EstLatency: 15}
	}

	completes := func(t *testing.T, res *Result, _ *countingProbe) {
		for _, jr := range res.Jobs {
			if jr.Failed || jr.CompletionTime <= 0 {
				t.Fatalf("job %d failed=%v completion=%g", jr.ID, jr.Failed, jr.CompletionTime)
			}
		}
	}
	return []dispatchScenario{
		{
			name: "corral-confined",
			opts: Options{Topology: topo, Scheduler: Corral, Plan: plan, BlockSize: 64e6, Seed: 101},
			jobs: jobs,
			check: func(t *testing.T, res *Result, p *countingProbe) {
				completes(t, res, p)
				for _, jr := range res.Jobs {
					if a := plan.Assignments[jr.ID]; jr.RacksUsed > len(a.Racks) {
						t.Fatalf("job %d used %d racks, plan allows %d", jr.ID, jr.RacksUsed, len(a.Racks))
					}
				}
			},
		},
		{
			name: "corral-adhoc",
			opts: Options{Topology: topo, Scheduler: Corral, Plan: mixedPlan, BlockSize: 64e6, Seed: 102},
			jobs: mixed,
			check: func(t *testing.T, res *Result, p *countingProbe) {
				completes(t, res, p)
				adhoc := 0
				for _, jr := range res.Jobs {
					if jr.AdHoc {
						adhoc++
					}
				}
				if adhoc != 4 {
					t.Fatalf("%d ad-hoc jobs in the result, want 4", adhoc)
				}
			},
		},
		{
			name:  "shufflewatcher",
			opts:  Options{Topology: topo, Scheduler: ShuffleWatcher, BlockSize: 64e6, Seed: 103},
			jobs:  dispatchJobs(16),
			check: completes,
		},
		{
			name:  "localshuffle",
			opts:  Options{Topology: topo, Scheduler: LocalShuffle, Plan: plan, BlockSize: 64e6, Seed: 104},
			jobs:  dispatchJobs(16),
			check: completes,
		},
		{
			name:  "yarncs",
			opts:  Options{Topology: topo, Scheduler: YarnCS, BlockSize: 64e6, Seed: 105},
			jobs:  dispatchJobs(16),
			check: completes,
		},
		{
			name: "corral-replan-faults",
			opts: Options{
				Topology: topo, Scheduler: Corral, Plan: pinned, BlockSize: 64e6, Seed: 106,
				ReplanOnFailure: true,
				PlannerBudget:   1e6,
				TaskFailureProb: 0.25,
				Failures:        []Failure{{At: 9, Machine: 0}, {At: 9, Machine: 1}, {At: 9, Machine: 2}},
			},
			jobs: faulty,
			check: func(t *testing.T, res *Result, p *countingProbe) {
				if res.Replans < 1 || res.Degradations.Full < 1 {
					t.Fatalf("replans %d, degradations %+v: want a full replan after the rack loss", res.Replans, res.Degradations)
				}
				if p.kinds[trace.KBlacklist] == 0 {
					t.Fatal("no machine was blacklisted")
				}
			},
		},
	}
}

// dispatchDigests pins each scenario's Result (sha256 of its JSON) and the
// run's final RNG draw count. They were recorded before dispatch learned
// to skip racks no runnable job allows: that change must not move a bit
// of any Result, nor consume a different number of random values.
var dispatchDigests = map[string]struct {
	result string
	draws  uint64
}{
	"corral-confined":      {"05957c914015be09aa63d839635f0c201828e54a06b64884ebb80784c55ffd48", 2736},
	"corral-adhoc":         {"08634fc16eb1e8f3169682be6bf660e3f091d4999ab20175130c1357f4275de7", 3468},
	"shufflewatcher":       {"98334f0885d156bf0a483bdd6543a224d86393583715d6acd16e70bfc8a02e57", 7915},
	"localshuffle":         {"c35f674606263cc4ca6bc818f9bf72f45d5e59e2f2e84eb9844e5a80048449f8", 7088},
	"yarncs":               {"5e8e24a2393f8dc685467e9a6182a1485ae1b14064622083ac59cbcdd1e12a0d", 4744},
	"corral-replan-faults": {"7b81aa307fbcb124bd8d3864fe59f94e43017132c4dc4434e38b2ef62db5569d", 6077},
}

func TestDispatchDigestsMatchParent(t *testing.T) {
	for _, sc := range dispatchScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			probe := newCountingProbe(sc.opts.Topology.Machines(), sc.opts.Topology.SlotsPerMachine)
			opts := sc.opts
			opts.Probe = probe
			rt, err := newRuntime(opts, sc.jobs)
			if err != nil {
				t.Fatal(err)
			}
			res, err := rt.run()
			if err != nil {
				t.Fatal(err)
			}
			sc.check(t, res, probe)
			if n := probe.mon.ViolationCount(); n != 0 {
				t.Fatalf("%d invariant violations: %v", n, probe.mon.Violations())
			}
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			got := hex.EncodeToString(sum[:])
			want := dispatchDigests[sc.name]
			if got != want.result || rt.rngSrc.draws != want.draws {
				t.Errorf("Result digest %s, %d draws; want %s, %d draws", got, rt.rngSrc.draws, want.result, want.draws)
			}
		})
	}
}

// refSource is math/rand's own seeded source with a draw count: the
// reference the inline generator and its Int31n draws are checked against.
type refSource struct {
	src   rand.Source64
	draws uint64
}

func newRefSource(seed int64) *refSource {
	return &refSource{src: rand.NewSource(seed).(rand.Source64)}
}

func (r *refSource) Int63() int64    { r.draws++; return r.src.Int63() }
func (r *refSource) Uint64() uint64  { r.draws++; return r.src.Uint64() }
func (r *refSource) Seed(seed int64) { r.draws = 0; r.src.Seed(seed) }

func TestCountingSourceMatchesMathRand(t *testing.T) {
	// 1<<31-1 is the seed math/rand maps to its zero-seed default.
	for _, seed := range []int64{0, 1, -3, 1 << 40, 1<<31 - 1, 1000003} {
		mine := newCountingSource(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 1<<20; i++ {
			if got, want := mine.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d: draw %d = %#x, math/rand %#x", seed, i, got, want)
			}
		}
		if mine.draws != 1<<20 {
			t.Fatalf("seed %d: %d draws counted, want %d", seed, mine.draws, 1<<20)
		}
	}
}

func TestCountingSourceIntnMatchesRand(t *testing.T) {
	var ns []int
	for n := 1; n <= 10001; n++ {
		ns = append(ns, n)
	}
	for k := 0; k <= 30; k++ {
		ns = append(ns, 1<<k)
	}
	// Just above a power of two, up to half of Int31's range is rejected.
	for _, n := range []int{1<<30 + 1, 1<<30 + 12345, 3 << 29, 1<<31 - 2, 1<<31 - 1} {
		for i := 0; i < 200; i++ {
			ns = append(ns, n)
		}
	}
	for _, seed := range []int64{1, 7, 42, -3, 1 << 40} {
		mine := newCountingSource(seed)
		ref := newRefSource(seed)
		rng := rand.New(ref)
		var got [1]int32
		for _, n := range ns {
			mine.int31ns(got[:], int32(n))
			if want := rng.Intn(n); int(got[0]) != want {
				t.Fatalf("seed %d: Int31n(%d) = %d, rand.Intn = %d", seed, n, got[0], want)
			}
			if mine.draws != ref.draws {
				t.Fatalf("seed %d: after Int31n(%d) %d draws, rand.Intn %d", seed, n, mine.draws, ref.draws)
			}
		}
		if mine.draws <= uint64(len(ns)) {
			t.Fatalf("seed %d: %d draws for %d calls: the rejection loop never ran", seed, mine.draws, len(ns))
		}
	}
}

func TestFisherYatesMatchesIntn(t *testing.T) {
	for _, m := range []int{2000, 10000} {
		for _, seed := range []int64{1, 1000003} {
			mine := newCountingSource(seed)
			ref := newRefSource(seed)
			rng := rand.New(ref)
			js := make([]int32, m)
			for pass := 0; pass < 3; pass++ {
				mine.fisherYates(js)
				for i := m - 1; i > 0; i-- {
					if want := rng.Intn(i + 1); int(js[i]) != want {
						t.Fatalf("M=%d seed %d pass %d: js[%d] = %d, rand.Intn(%d) = %d", m, seed, pass, i, js[i], i+1, want)
					}
				}
				if mine.draws != ref.draws {
					t.Fatalf("M=%d seed %d pass %d: %d draws, rand.Intn %d", m, seed, pass, mine.draws, ref.draws)
				}
			}
		}
	}
}

func TestShuffleGathersCandidatesInOrder(t *testing.T) {
	topo := smallTopo()
	topo.Racks, topo.MachinesPerRack = 20, 5
	rt, err := newRuntime(Options{Topology: topo, BlockSize: 64e6, Seed: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pick := rand.New(rand.NewSource(9))
	racks, machines := topo.Racks, topo.Machines()
	for pass := 0; pass < 500; pass++ {
		n := pick.Intn(racks + 1)
		switch pass {
		case 0:
			n = 0
		case 1:
			n = racks
		}
		in := make([]bool, racks)
		for _, r := range pick.Perm(racks)[:n] {
			in[r] = true
		}
		for m := range rt.candidate {
			rt.candidate[m] = in[m/topo.MachinesPerRack]
		}
		got := slices.Clone(rt.shuffleMachineOrder(false))
		var want []int32
		seen := make([]bool, machines)
		for _, m := range rt.machineOrder {
			if seen[m] {
				t.Fatalf("pass %d: machine %d twice in the heartbeat order", pass, m)
			}
			seen[m] = true
			if in[int(m)/topo.MachinesPerRack] {
				want = append(want, m)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("pass %d, %d racks: candidate order %v, want %v", pass, n, got, want)
		}
	}
}

// BenchmarkDispatchShuffle times one dispatch pass's heartbeat shuffle
// (draws, swaps and a candidate gather over one rack in 20) per op.
func BenchmarkDispatchShuffle(b *testing.B) {
	for _, racks := range []int{100, 500} {
		topo := smallTopo()
		topo.Racks, topo.MachinesPerRack = racks, 20
		b.Run(fmt.Sprintf("machines=%d", topo.Machines()), func(b *testing.B) {
			rt, err := newRuntime(Options{Topology: topo, BlockSize: 64e6, Seed: 1}, nil)
			if err != nil {
				b.Fatal(err)
			}
			for m := range rt.candidate {
				rt.candidate[m] = m/topo.MachinesPerRack%20 == 0
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				shuffleSink = rt.shuffleMachineOrder(false)
			}
		})
	}
}

var shuffleSink []int32

// TestDispatchPassAllocatesNothing runs dispatch on a warm runtime whose
// runnable job has every slot of its one allowed rack busy, while the
// other racks sit idle: each call shuffles, gathers the rack's machines
// and visits them, and must allocate nothing.
func TestDispatchPassAllocatesNothing(t *testing.T) {
	topo := dispatchTopo()
	j := job.MapReduce(1, "wide", job.Profile{
		InputBytes: 4e9, ShuffleBytes: 1e9, OutputBytes: 1e8,
		MapTasks: 64, ReduceTasks: 8, MapRate: 2e7, ReduceRate: 2e8,
	})
	plan := &planner.Plan{Objective: planner.MinimizeMakespan, Assignments: map[int]*planner.Assignment{
		1: {JobID: 1, Racks: []int{3}, EstLatency: 100},
	}}
	rt, err := newRuntime(Options{Topology: topo, Scheduler: Corral, Plan: plan, BlockSize: 64e6, Seed: 8}, []*job.Job{j})
	if err != nil {
		t.Fatal(err)
	}
	rt.start()
	busy := func() bool {
		lo, hi := rt.cluster.MachinesInRack(3)
		for m := lo; m < hi; m++ {
			if rt.freeSlots[m] > 0 {
				return false
			}
		}
		return true
	}
	for !busy() {
		if !rt.sim.Step() {
			t.Fatal("simulation drained before rack 3 filled")
		}
	}
	if rt.jobs[0].runnableTasks() == 0 {
		t.Fatal("job has nothing left to run: the pass would visit no rack")
	}
	draws := rt.rngSrc.draws
	if allocs := testing.AllocsPerRun(50, rt.dispatch); allocs != 0 {
		t.Fatalf("warm dispatch pass allocates %v times", allocs)
	}
	if rt.rngSrc.draws == draws {
		t.Fatal("dispatch drew no random values: no pass ran")
	}
}
