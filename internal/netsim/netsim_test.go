package netsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"corral/internal/des"
	"corral/internal/topology"
)

const gbps = 1e9 / 8

func testCluster(t *testing.T) *topology.Cluster {
	t.Helper()
	return topology.MustNew(topology.Config{
		Racks:            3,
		MachinesPerRack:  4,
		SlotsPerMachine:  2,
		NICBandwidth:     10 * gbps,
		Oversubscription: 5, // rack uplink = 4*10/5 = 8 Gbps
	})
}

func newNet(t *testing.T, p Policy) (*des.Simulator, *Network) {
	t.Helper()
	sim := des.New()
	return sim, New(sim, testCluster(t), p)
}

func TestSingleFlowNICLimited(t *testing.T) {
	sim, n := newNet(t, MaxMinFair{})
	var doneAt des.Time
	// Intra-rack flow: limited by the 10 Gbps NIC.
	n.Start(0, 1, 10*gbps, 0, 1, func(*Flow) { doneAt = sim.Now() })
	sim.Run()
	if math.Abs(float64(doneAt)-1.0) > 1e-6 {
		t.Fatalf("10Gb intra-rack flow on a 10Gbps NIC finished at %v, want 1s", doneAt)
	}
}

func TestSingleFlowCrossRackLimited(t *testing.T) {
	sim, n := newNet(t, MaxMinFair{})
	var doneAt des.Time
	// Cross-rack flow: limited by the 8 Gbps rack uplink.
	n.Start(0, 4, 8*gbps, 0, 1, func(*Flow) { doneAt = sim.Now() })
	sim.Run()
	if math.Abs(float64(doneAt)-1.0) > 1e-6 {
		t.Fatalf("8Gb cross-rack flow on an 8Gbps uplink finished at %v, want 1s", doneAt)
	}
}

func TestTwoFlowsShareUplink(t *testing.T) {
	sim, n := newNet(t, MaxMinFair{})
	var t1, t2 des.Time
	// Two flows from different machines in rack 0 to rack 1 share the
	// 8 Gbps uplink: 4 Gbps each.
	n.Start(0, 4, 4*gbps, 0, 1, func(*Flow) { t1 = sim.Now() })
	n.Start(1, 5, 4*gbps, 0, 2, func(*Flow) { t2 = sim.Now() })
	sim.Run()
	if math.Abs(float64(t1)-1.0) > 1e-6 || math.Abs(float64(t2)-1.0) > 1e-6 {
		t.Fatalf("equal flows finished at %v and %v, want 1s each", t1, t2)
	}
}

func TestShortFlowFreesBandwidth(t *testing.T) {
	sim, n := newNet(t, MaxMinFair{})
	var tShort, tLong des.Time
	// Share 8Gbps uplink. Short: 2Gb, long: 6Gb.
	// Phase 1: both at 4 Gbps; short finishes at 0.5s (2/4).
	// Phase 2: long has 4Gb left at 8 Gbps -> +0.5s. Total 1.0s.
	n.Start(0, 4, 2*gbps, 0, 1, func(*Flow) { tShort = sim.Now() })
	n.Start(1, 5, 6*gbps, 0, 2, func(*Flow) { tLong = sim.Now() })
	sim.Run()
	if math.Abs(float64(tShort)-0.5) > 1e-6 {
		t.Fatalf("short flow finished at %v, want 0.5s", tShort)
	}
	if math.Abs(float64(tLong)-1.0) > 1e-6 {
		t.Fatalf("long flow finished at %v, want 1.0s", tLong)
	}
}

func TestIntraRackFullBisection(t *testing.T) {
	sim, n := newNet(t, MaxMinFair{})
	// Four disjoint intra-rack pairs: all should run at full NIC speed in
	// parallel (full bisection within the rack).
	var finish [2]des.Time
	n.Start(0, 1, 10*gbps, 0, 1, func(*Flow) { finish[0] = sim.Now() })
	n.Start(2, 3, 10*gbps, 0, 2, func(*Flow) { finish[1] = sim.Now() })
	sim.Run()
	for i, at := range finish {
		if math.Abs(float64(at)-1.0) > 1e-6 {
			t.Fatalf("disjoint intra-rack flow %d finished at %v, want 1s", i, at)
		}
	}
}

func TestMaxMinUnevenShares(t *testing.T) {
	sim, n := newNet(t, MaxMinFair{})
	// Flow A: 0->1 intra-rack (NIC limited, should get leftover 10Gbps... )
	// Flow B and C: 2->4 and 3->5 cross rack (uplink 8Gbps shared: 4 each).
	// A shares no links with B/C, so A gets the full 10 Gbps.
	var ta des.Time
	n.Start(0, 1, 10*gbps, 0, 1, func(*Flow) { ta = sim.Now() })
	n.Start(2, 4, 100*gbps, 0, 2, nil)
	n.Start(3, 5, 100*gbps, 0, 3, nil)
	sim.RunUntil(0)
	rates := n.Rates()
	if len(rates) != 3 {
		t.Fatalf("active flows = %d, want 3", len(rates))
	}
	sim.Run()
	if math.Abs(float64(ta)-1.0) > 1e-6 {
		t.Fatalf("independent intra-rack flow finished at %v, want 1s", ta)
	}
}

func TestLoopbackFlow(t *testing.T) {
	sim, n := newNet(t, MaxMinFair{})
	var done bool
	n.Start(3, 3, 1e12, 0, 1, func(*Flow) { done = true })
	sim.Run()
	if !done {
		t.Fatal("loopback flow never completed")
	}
	if n.CrossRackBytes() != 0 {
		t.Fatal("loopback flow counted as cross-rack")
	}
	if sim.Now() > 2 {
		t.Fatalf("loopback copy took %v, want ~1s at loopback rate", sim.Now())
	}
}

func TestZeroByteFlowCompletesAsync(t *testing.T) {
	sim, n := newNet(t, MaxMinFair{})
	calls := 0
	n.Start(0, 4, 0, 0, 1, func(*Flow) {
		calls++
		// Starting a new flow from inside a completion callback must work.
		n.Start(4, 0, 0, 0, 1, func(*Flow) { calls++ })
	})
	if calls != 0 {
		t.Fatal("zero-byte flow completed synchronously")
	}
	sim.Run()
	if calls != 2 {
		t.Fatalf("completion callbacks = %d, want 2", calls)
	}
}

func TestCrossRackAccounting(t *testing.T) {
	sim, n := newNet(t, MaxMinFair{})
	n.Start(0, 4, 1000, 0, 7, nil) // cross-rack
	n.Start(0, 1, 500, 0, 7, nil)  // intra-rack
	n.Start(1, 8, 200, 0, 9, nil)  // cross-rack, other job
	n.Start(2, 9, 100, 0, -1, nil) // unattributed
	sim.Run()
	if got := n.CrossRackBytes(); got != 1300 {
		t.Fatalf("CrossRackBytes = %g, want 1300", got)
	}
	if got := n.CrossRackBytesByJob(7); got != 1000 {
		t.Fatalf("job 7 cross-rack = %g, want 1000", got)
	}
	if got := n.CrossRackBytesByJob(9); got != 200 {
		t.Fatalf("job 9 cross-rack = %g, want 200", got)
	}
	if got := n.TotalBytes(); got != 1800 {
		t.Fatalf("TotalBytes = %g, want 1800", got)
	}
}

func TestNegativeFlowPanics(t *testing.T) {
	_, n := newNet(t, MaxMinFair{})
	defer func() {
		if recover() == nil {
			t.Fatal("negative flow size did not panic")
		}
	}()
	n.Start(0, 1, -5, 0, 1, nil)
}

// checkFeasible asserts no link carries more than its capacity and no flow
// has a negative rate.
func checkFeasible(t *testing.T, cl *topology.Cluster, flows []*Flow) {
	t.Helper()
	usage := make([]float64, cl.NumLinks())
	for _, f := range flows {
		if f.rate < -1e-9 {
			t.Fatalf("flow %d has negative rate %g", f.ID, f.rate)
		}
		for _, l := range f.path {
			usage[l] += f.rate
		}
	}
	for i, l := range cl.Links() {
		if usage[i] > l.Capacity*(1+1e-9)+1e-6 {
			t.Fatalf("link %s oversubscribed: %g > %g", l.Name, usage[i], l.Capacity)
		}
	}
}

// Property: max-min allocations are feasible and every flow is bottlenecked
// on at least one saturated link (Pareto efficiency of max-min fairness).
func TestQuickMaxMinFeasibleAndSaturated(t *testing.T) {
	cl := testCluster(t)
	nMachines := cl.Config.Machines()
	f := func(seed int64, count uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(count%20) + 1
		flows := make([]*Flow, 0, k)
		for i := 0; i < k; i++ {
			src := rng.Intn(nMachines)
			dst := rng.Intn(nMachines)
			if src == dst {
				dst = (dst + 1) % nMachines
			}
			fl := &Flow{ID: int64(i), Src: src, Dst: dst, remaining: 1e9}
			fl.path, fl.CrossRack = cl.Path(src, dst)
			flows = append(flows, fl)
		}
		caps := make([]float64, cl.NumLinks())
		for i, l := range cl.Links() {
			caps[i] = l.Capacity
		}
		scratch := make([]float64, len(caps))
		MaxMinFair{}.Allocate(flows, caps, scratch)

		usage := make([]float64, cl.NumLinks())
		for _, fl := range flows {
			if fl.rate <= 0 {
				return false // every flow must get bandwidth
			}
			for _, l := range fl.path {
				usage[l] += fl.rate
			}
		}
		for i, l := range cl.Links() {
			if usage[i] > l.Capacity*(1+1e-6) {
				return false
			}
		}
		// Pareto efficiency: each flow crosses >= 1 saturated link.
		for _, fl := range flows {
			saturated := false
			for _, l := range fl.path {
				if usage[l] >= cl.Links()[l].Capacity*(1-1e-6) {
					saturated = true
					break
				}
			}
			if !saturated {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Varys allocations are always feasible and work-conserving in
// the sense that total allocated rate >= max-min's total (it backfills).
func TestQuickVarysFeasible(t *testing.T) {
	cl := testCluster(t)
	nMachines := cl.Config.Machines()
	f := func(seed int64, count uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(count%20) + 2
		flows := make([]*Flow, 0, k)
		for i := 0; i < k; i++ {
			src := rng.Intn(nMachines)
			dst := rng.Intn(nMachines)
			if src == dst {
				dst = (dst + 1) % nMachines
			}
			fl := &Flow{
				ID: int64(i), Src: src, Dst: dst,
				remaining: float64(rng.Intn(1000)+1) * 1e6,
				Coflow:    CoflowID(rng.Intn(4)), // some in coflows, some not
			}
			fl.path, fl.CrossRack = cl.Path(src, dst)
			flows = append(flows, fl)
		}
		caps := make([]float64, cl.NumLinks())
		for i, l := range cl.Links() {
			caps[i] = l.Capacity
		}
		scratch := make([]float64, len(caps))
		Varys{}.Allocate(flows, caps, scratch)

		usage := make([]float64, cl.NumLinks())
		for _, fl := range flows {
			if fl.rate < -1e-9 {
				return false
			}
			for _, l := range fl.path {
				usage[l] += fl.rate
			}
		}
		for i, l := range cl.Links() {
			if usage[i] > l.Capacity*(1+1e-6)+1e-3 {
				return false
			}
		}
		// Work conservation: some bandwidth is always allocated. (Individual
		// flows may legitimately get zero under strict coflow priority when
		// a higher-priority coflow saturates their links.)
		total := 0.0
		for _, fl := range flows {
			total += fl.rate
		}
		return total > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestVarysPrioritizesSmallCoflow(t *testing.T) {
	sim, n := newNet(t, Varys{})
	var tSmall, tBig des.Time
	// Two coflows compete for the rack 0 uplink (8 Gbps).
	// Small coflow: 2 Gb; big coflow: 16 Gb. Under SEBF the small coflow
	// finishes first, far sooner than its fair-share time.
	big := func(*Flow) { tBig = sim.Now() }
	n.Start(0, 4, 16*gbps, CoflowID(2), 2, big)
	n.Start(1, 5, 2*gbps, CoflowID(1), 1, func(*Flow) { tSmall = sim.Now() })
	sim.Run()
	if tSmall >= tBig {
		t.Fatalf("small coflow finished at %v, after big at %v", tSmall, tBig)
	}
	// Under plain fair sharing the small coflow would finish at 0.5s
	// (2Gb at 4Gbps). Under SEBF it gets priority: ~0.25s at 8 Gbps.
	if float64(tSmall) > 0.45 {
		t.Fatalf("SEBF small coflow finished at %v, want ~0.25s (< fair-share 0.5s)", tSmall)
	}
	// Work conservation: the big coflow still finishes around 18/8 = 2.25s.
	if math.Abs(float64(tBig)-2.25) > 0.1 {
		t.Fatalf("big coflow finished at %v, want ~2.25s", tBig)
	}
}

func TestVarysMADDNoWastedBandwidth(t *testing.T) {
	// A coflow with two flows of different sizes through the same uplink:
	// MADD gives the bigger flow more bandwidth so both finish together.
	cl := testCluster(t)
	f1 := &Flow{ID: 1, Src: 0, Dst: 4, remaining: 6 * gbps, Coflow: 1}
	f1.path, _ = cl.Path(0, 4)
	f2 := &Flow{ID: 2, Src: 1, Dst: 5, remaining: 2 * gbps, Coflow: 1}
	f2.path, _ = cl.Path(1, 5)
	caps := make([]float64, cl.NumLinks())
	for i, l := range cl.Links() {
		caps[i] = l.Capacity
	}
	scratch := make([]float64, len(caps))
	Varys{}.Allocate([]*Flow{f1, f2}, caps, scratch)
	// Gamma = 8Gb/8Gbps = 1s -> f1 at 6Gbps, f2 at 2Gbps (plus any backfill
	// headroom on NICs, but uplink is the binding constraint).
	ratio := f1.rate / f2.rate
	if math.Abs(ratio-3.0) > 0.01 {
		t.Fatalf("MADD rate ratio = %g, want 3 (proportional to sizes)", ratio)
	}
}

func TestManyFlowsDeterministic(t *testing.T) {
	run := func() (des.Time, float64) {
		sim := des.New()
		n := New(sim, testCluster(t), MaxMinFair{})
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 200; i++ {
			src := rng.Intn(12)
			dst := rng.Intn(12)
			if src == dst {
				dst = (dst + 1) % 12
			}
			n.Start(src, dst, float64(rng.Intn(1000)+1)*1e6, 0, i%5, nil)
		}
		sim.Run()
		return sim.Now(), n.CrossRackBytes()
	}
	t1, c1 := run()
	t2, c2 := run()
	//corralvet:ok floateq exact identity intended: determinism: two identical runs must agree bit for bit
	if t1 != t2 || c1 != c2 {
		t.Fatalf("simulation not deterministic: (%v,%g) vs (%v,%g)", t1, c1, t2, c2)
	}
	if t1 <= 0 {
		t.Fatal("simulation finished instantly")
	}
}

func TestBackgroundTrafficSlowsCrossRack(t *testing.T) {
	run := func(bg float64) des.Time {
		sim := des.New()
		cl := topology.MustNew(topology.Config{
			Racks: 3, MachinesPerRack: 4, SlotsPerMachine: 2,
			NICBandwidth: 10 * gbps, Oversubscription: 5,
			BackgroundPerRack: bg,
		})
		n := New(sim, cl, MaxMinFair{})
		n.Start(0, 4, 8*gbps, 0, 1, nil)
		sim.Run()
		return sim.Now()
	}
	noBG := run(0)
	withBG := run(4 * gbps) // halves the 8 Gbps uplink
	if math.Abs(float64(withBG)/float64(noBG)-2.0) > 1e-6 {
		t.Fatalf("background traffic slowdown = %g, want 2x", float64(withBG)/float64(noBG))
	}
}
