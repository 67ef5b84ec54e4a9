package main

import (
	"fmt"
	"math/rand"
	"time"

	"corral"
	"corral/internal/experiments"
	"corral/internal/job"
	"corral/internal/model"
	"corral/internal/planner"
	"corral/internal/runtime"
	"corral/internal/topology"
	"corral/internal/workload"
)

const gbps = 1e9 / 8

// Sim is one simulation a workload runs on its inputs.
type Sim struct {
	Label  string
	Kind   runtime.Kind
	Replan bool // Corral with failure-triggered replanning
	// Timed sims are what the timed pass runs. An untimed sim is the
	// Yarn-CS baseline of the traced pass's jct_reduction_pct.
	Timed bool
}

// Workload is one named benchmark input family: a pure function of the
// seed to the cluster, job stream and fault schedule the program sees.
type Workload struct {
	Name string
	Sims []Sim
	// Sets is how many input sets a timed run measures: the workload's
	// inputs for Sets seeds derived from the benchmark seed. Several sets
	// per run keep the run's figures steady from one seed to the next.
	Sets int
	// ResumeCheck adds the crash-resume check to the traced pass.
	ResumeCheck bool
	gen         func(seed int64) Inputs
}

// Inputs is everything a workload hands the simulator for one seed.
type Inputs struct {
	Topo        topology.Config
	Jobs        []*job.Job
	Failures    []runtime.Failure
	LinkFaults  []runtime.LinkFault
	Corruptions []runtime.Corruption
}

// workloads are the benchmark's named input families. README.md gives the
// reasons for each.
var workloads = []Workload{
	{
		// 2k machines, ~650 flows per allocator call: the netsim allocator
		// dominates sim time, planning is negligible.
		Name: "dc2k-online",
		Sims: []Sim{
			{Label: "corral", Kind: runtime.Corral, Timed: true},
			{Label: "yarn-cs", Kind: runtime.YarnCS},
		},
		Sets:        24,
		ResumeCheck: true,
		gen:         func(seed int64) Inputs { return dcInputs(2000, seed) },
	},
	{
		// 10k machines, ~175 flows per call: O(machines) heartbeat dispatch
		// and the 10k-machine offline plan dominate.
		Name: "dc10k-online",
		Sims: []Sim{
			{Label: "corral", Kind: runtime.Corral, Timed: true},
			{Label: "yarn-cs", Kind: runtime.YarnCS},
		},
		Sets: 16,
		gen:  func(seed int64) Inputs { return dcInputs(10000, seed) },
	},
	{
		// The paper's cluster under machine, uplink and replica faults: DFS
		// repair, allocator cache misses, replans, Yarn-CS dispatch. Not in
		// BENCHMARK.json: its figures swing too far from seed to seed.
		Name: "paper-faults",
		Sims: []Sim{
			{Label: "yarn-cs", Kind: runtime.YarnCS, Timed: true},
			{Label: "corral-replan", Kind: runtime.Corral, Replan: true, Timed: true},
		},
		Sets: 4,
		gen:  paperFaultsInputs,
	},
}

func lookupWorkload(name string) (*Workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// corral returns the workload's Corral simulation.
func (w *Workload) corral() Sim {
	for _, s := range w.Sims {
		if s.Kind == runtime.Corral {
			return s
		}
	}
	panic("workload " + w.Name + " has no Corral simulation")
}

// setSeeds derives a run's input-set seeds from the benchmark seed. The
// first set uses the seed itself.
func setSeeds(seed int64, sets int) []int64 {
	out := make([]int64, sets)
	for i := range out {
		out[i] = seed + int64(i)*1000003
	}
	return out
}

// dcInputs is the scale suite's cell at the given machine count: 40-machine
// racks of 2-slot machines at 10 Gbps and 5:1 oversubscription, with an
// online W1 stream of 160+machines/50 jobs at 1/8 bytes and tasks arriving
// over machines/20 seconds.
func dcInputs(machines int, seed int64) Inputs {
	return Inputs{
		Topo: topology.Config{
			Racks:            machines / 40,
			MachinesPerRack:  40,
			SlotsPerMachine:  2,
			NICBandwidth:     10 * gbps,
			Oversubscription: 5,
		},
		Jobs: workload.W1(workload.Config{
			Seed:          seed,
			Jobs:          160 + machines/50,
			Scale:         1.0 / 8,
			TaskScale:     1.0 / 8,
			ArrivalWindow: float64(machines) / 20,
		}),
	}
}

// paperFaultsHorizon is both the arrival window and the fault horizon.
const paperFaultsHorizon = 1800

// paperFaultsCorruptions is how many replica corruptions the fault
// schedule carries.
const paperFaultsCorruptions = 12

// paperFaultsInputs is the paper's cluster (7 racks x 30 machines x 8
// slots) with 200 online W1 jobs at 1/4 scale over 1,800 s, under a chaos
// trace of intensity 0.5 and a seeded set of replica corruptions.
func paperFaultsInputs(seed int64) Inputs {
	topo := corral.DefaultCluster()
	in := Inputs{
		Topo: topo,
		Jobs: workload.W1(workload.Config{
			Seed:          seed,
			Jobs:          200,
			Scale:         1.0 / 4,
			TaskScale:     1.0 / 4,
			ArrivalWindow: paperFaultsHorizon,
		}),
	}
	in.Failures, in.LinkFaults = experiments.GenChaosTrace(topo, seed, 0.5, paperFaultsHorizon)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for i := 0; i < paperFaultsCorruptions; i++ {
		in.Corruptions = append(in.Corruptions, runtime.Corruption{
			At:      rng.Float64() * paperFaultsHorizon,
			Machine: rng.Intn(topo.Machines()),
		})
	}
	return in
}

// plan runs the offline planner over the inputs' recurring jobs.
func (in *Inputs) plan() (*planner.Plan, error) {
	var planned []*job.Job
	for _, j := range in.Jobs {
		if !j.AdHoc {
			planned = append(planned, j)
		}
	}
	return planner.New(planner.Input{
		Cluster:   model.FromTopology(in.Topo),
		Jobs:      planned,
		Alpha:     -1,
		Objective: planner.MinimizeAvgCompletion,
	})
}

// candidates is the provisioning phase's candidate count, J·(R−1)+1,
// computed from the inputs rather than read from the planner.
func (in *Inputs) candidates() int {
	return len(in.Jobs)*(in.Topo.Racks-1) + 1
}

// options builds the runtime options of one simulation.
func (in *Inputs) options(s Sim, plan *planner.Plan, seed int64) runtime.Options {
	o := runtime.Options{
		Topology:        in.Topo,
		Scheduler:       s.Kind,
		Seed:            seed,
		Failures:        in.Failures,
		LinkFaults:      in.LinkFaults,
		Corruptions:     in.Corruptions,
		ReplanOnFailure: s.Replan,
	}
	if s.Kind == runtime.Corral {
		o.Plan = plan
	}
	return o
}

// setup is the work before the first simulated event: input generation
// and the offline plan. It returns the host seconds it took.
func setup(w *Workload, seed int64) (Inputs, *planner.Plan, float64, error) {
	start := time.Now()
	in := w.gen(seed)
	plan, err := in.plan()
	if err != nil {
		return in, nil, 0, fmt.Errorf("plan: %w", err)
	}
	return in, plan, time.Since(start).Seconds(), nil
}
