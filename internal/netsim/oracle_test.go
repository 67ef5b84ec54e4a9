package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"corral/internal/topology"
)

// checkMaxMinOracle verifies an allocation from the definition of max-min
// fairness, sharing no code or arithmetic with any fill: every rate is
// finite and non-negative, no link carries more than its capacity, and
// every flow has a bottleneck — a saturated link on its path on which no
// flow has a higher rate. A feasible allocation with a bottleneck for
// every flow is the max-min fair one.
func checkMaxMinOracle(flows []*Flow, caps []float64) error {
	usage := make([]float64, len(caps))
	top := make([]float64, len(caps))
	for _, f := range flows {
		if len(f.path) == 0 {
			return fmt.Errorf("flow %d has an empty path", f.ID)
		}
		if f.rate < 0 || math.IsNaN(f.rate) || math.IsInf(f.rate, 0) {
			return fmt.Errorf("flow %d has rate %g", f.ID, f.rate)
		}
		for _, l := range f.path {
			usage[l] += f.rate
			top[l] = math.Max(top[l], f.rate)
		}
	}
	for l, c := range caps {
		if usage[l] > c*(1+1e-9)+1e-6 {
			return fmt.Errorf("link %d oversubscribed: %g > %g", l, usage[l], c)
		}
	}
	for _, f := range flows {
		bottleneck := false
		for _, l := range f.path {
			if usage[l] >= caps[l]*(1-1e-6) && f.rate >= top[l] {
				bottleneck = true
				break
			}
		}
		if !bottleneck {
			return fmt.Errorf("flow %d (rate %g) has no saturated link on which its rate is the largest", f.ID, f.rate)
		}
	}
	return nil
}

// TestIncrementalMatchesMaxMinOracle checks the production allocator
// against the oracle on every allocation of the seeded differential
// scripts: starts, cancels, link faults (outages included) and
// rack-aggregated paths, with the incremental tables warm throughout.
func TestIncrementalMatchesMaxMinOracle(t *testing.T) {
	c := topology.MustNew(topology.Config{
		Racks:            4,
		MachinesPerRack:  5,
		SlotsPerMachine:  2,
		NICBandwidth:     10 * gbps,
		Oversubscription: 5,
	})
	checked := 0
	for seed := int64(1); seed <= 8; seed++ {
		ops := genScript(rand.New(rand.NewSource(seed)), c, 300)
		inc := NewIncrementalMaxMin()
		replayAudited(c, ops, inc, false, func(n *Network) {
			if err := checkMaxMinOracle(n.flows, n.caps); err != nil {
				t.Fatalf("seed %d, allocation at t=%v: %v", seed, n.sim.Now(), err)
			}
			checked++
		})
		if gotInc, _ := inc.Rounds(); gotInc == 0 {
			t.Fatalf("seed %d: no warm round ran: the oracle never saw the incremental path", seed)
		}
	}
	if checked == 0 {
		t.Fatal("no allocation was checked")
	}
}

// TestMaxMinOracleRejectsWrongAllocations proves the oracle can fail: a
// correct allocation passes, and lowering or raising one flow's rate is
// caught (no bottleneck left for it; an oversubscribed link).
func TestMaxMinOracleRejectsWrongAllocations(t *testing.T) {
	caps := []float64{3 * gbps, 5 * gbps, 7 * gbps}
	flows := []*Flow{
		incFlow(1, 1, []topology.LinkID{0, 1}),
		incFlow(2, 2, []topology.LinkID{1, 2}),
		incFlow(3, 3, []topology.LinkID{2}),
	}
	NewIncrementalMaxMin().Allocate(flows, caps, make([]float64, len(caps)))
	if err := checkMaxMinOracle(flows, caps); err != nil {
		t.Fatalf("correct allocation rejected: %v", err)
	}
	for _, scale := range []float64{0.5, 1.5} {
		saved := flows[1].rate
		flows[1].rate *= scale
		if checkMaxMinOracle(flows, caps) == nil {
			t.Errorf("allocation with flow 2's rate scaled by %v accepted", scale)
		}
		flows[1].rate = saved
	}
}
