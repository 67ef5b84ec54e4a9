package netsim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"corral/internal/des"
	"corral/internal/topology"
)

// scriptOp is one step of a randomized differential script. The same script
// replays against a MaxMinFair network and a GroupedMaxMin network; any
// divergence in rates, completion times or accounting fails the test.
type scriptOp struct {
	at     des.Time
	kind   int // 0 start machine-pair, 1 start rack-aggregated, 2 cancel, 3 link fault
	src    int
	dst    int
	bytes  float64
	target int     // cancel: index into started flows
	link   int     // fault: link id
	factor float64 // fault: capacity factor
}

// genScript builds a deterministic op mix: machine-pair flows (in-rack,
// cross-rack and loopback), exec-shaped rack-aggregated StartPath flows,
// mid-transfer cancels, and link faults including full outages.
func genScript(rng *rand.Rand, c *topology.Cluster, nOps int) []scriptOp {
	machines := c.Config.Racks * c.Config.MachinesPerRack
	ops := make([]scriptOp, 0, nOps)
	started := 0
	for i := 0; i < nOps; i++ {
		op := scriptOp{at: des.Time(rng.Float64() * 3.0)}
		switch r := rng.Float64(); {
		case r < 0.55 || started == 0:
			op.kind = 0
			op.src = rng.Intn(machines)
			if rng.Float64() < 0.1 {
				op.dst = op.src // loopback
			} else {
				op.dst = rng.Intn(machines)
			}
			op.bytes = rng.Float64() * 4 * gbps
			if rng.Float64() < 0.05 {
				op.bytes = 0
			}
			started++
		case r < 0.75:
			op.kind = 1
			op.src = rng.Intn(c.Config.Racks) // source rack
			op.dst = rng.Intn(machines)       // destination machine
			op.bytes = rng.Float64() * 4 * gbps
			started++
		case r < 0.9:
			op.kind = 2
			op.target = rng.Intn(started)
		default:
			op.kind = 3
			op.link = rng.Intn(c.NumLinks())
			op.factor = []float64{0, 0.3, 1}[rng.Intn(3)]
		}
		ops = append(ops, op)
	}
	return ops
}

// rateSnap is one allocation observed through OnAllocate: every active
// flow's rate, bit-exact, in network flow order.
type rateSnap struct {
	at    des.Time
	ids   []int64
	rates []uint64
}

type runLog struct {
	snaps       []rateSnap
	completions map[int64]des.Time
	cross       uint64
	total       uint64
	served      int64
}

// replay runs the script against a fresh simulator/network under p and
// returns the full bit-exact allocation log.
func replay(c *topology.Cluster, ops []scriptOp, p Policy) runLog {
	return replayWith(c, ops, p, false)
}

// replayWith is replay with Flow-object pooling dialed. Under pooling a
// handle is dead once its flow completes or is canceled, so the cancel ops
// consult a liveness table — skipping a dead handle is exactly the
// reference's cancel-finished-flow no-op.
func replayWith(c *topology.Cluster, ops []scriptOp, p Policy, pooling bool) runLog {
	return replayAudited(c, ops, p, pooling, nil)
}

// replayAudited is replayWith with audit, if non-nil, called on the
// network after every allocation.
func replayAudited(c *topology.Cluster, ops []scriptOp, p Policy, pooling bool, audit func(*Network)) runLog {
	sim := des.New()
	n := New(sim, c, p)
	n.SetFlowPooling(pooling)
	log := runLog{completions: make(map[int64]des.Time)}
	n.OnAllocate = func() {
		if audit != nil {
			audit(n)
		}
		s := rateSnap{at: sim.Now()}
		for _, f := range n.flows {
			s.ids = append(s.ids, f.ID)
			s.rates = append(s.rates, math.Float64bits(f.rate))
		}
		log.snaps = append(log.snaps, s)
	}
	var handles []*Flow
	var dead []bool
	register := func(f *Flow) { handles = append(handles, f); dead = append(dead, false) }
	onDone := func() func(*Flow) {
		idx := len(handles) // the flow this callback belongs to
		return func(f *Flow) {
			dead[idx] = true
			log.completions[f.ID] = sim.Now()
		}
	}
	for _, op := range ops {
		op := op
		sim.At(op.at, func() {
			switch op.kind {
			case 0:
				register(n.Start(op.src, op.dst, op.bytes, 0, 0, onDone()))
			case 1:
				// Exec-shaped rack-aggregated shuffle path (see exec.go).
				var path []topology.LinkID
				cross := c.RackOf(op.dst) != op.src
				if cross {
					path = []topology.LinkID{c.RackUplink(op.src), c.RackDownlink(c.RackOf(op.dst)), c.MachineDownlink(op.dst)}
				} else {
					path = []topology.LinkID{c.MachineDownlink(op.dst)}
				}
				register(n.StartPath(path, cross, op.bytes, 0, 0, onDone()))
			case 2:
				if op.target < len(handles) && !dead[op.target] {
					n.Cancel(handles[op.target])
					dead[op.target] = true // retired at the next recompute
				}
			case 3:
				n.SetLinkCapacityFactor(topology.LinkID(op.link), op.factor)
			}
		})
	}
	// Clear any end-of-script outages so parked flows can drain and the
	// simulator runs to quiescence.
	sim.At(4.0, func() {
		for l := 0; l < c.NumLinks(); l++ {
			n.SetLinkCapacityFactor(topology.LinkID(l), 1)
		}
	})
	sim.Run()
	log.cross = math.Float64bits(n.CrossRackBytes())
	log.total = math.Float64bits(n.TotalBytes())
	log.served = n.FlowsServed()
	return log
}

// TestGroupedBitIdenticalToMaxMinFair is the differential gate for the
// grouped allocator: across seeded randomized scripts mixing in-rack,
// cross-rack, loopback and rack-aggregated flows with mid-transfer cancels
// and link faults, every allocation's rates, every completion time and all
// byte accounting must match MaxMinFair bit for bit.
func TestGroupedBitIdenticalToMaxMinFair(t *testing.T) {
	c := topology.MustNew(topology.Config{
		Racks:            4,
		MachinesPerRack:  5,
		SlotsPerMachine:  2,
		NICBandwidth:     10 * gbps,
		Oversubscription: 5,
	})
	for seed := int64(1); seed <= 8; seed++ {
		ops := genScript(rand.New(rand.NewSource(seed)), c, 300)
		ref := replay(c, ops, MaxMinFair{})
		got := replay(c, ops, NewGroupedMaxMin())
		if len(ref.snaps) != len(got.snaps) {
			t.Fatalf("seed %d: %d allocations under maxmin, %d under grouped", seed, len(ref.snaps), len(got.snaps))
		}
		for i := range ref.snaps {
			if !reflect.DeepEqual(ref.snaps[i], got.snaps[i]) {
				t.Fatalf("seed %d: allocation %d diverges:\n maxmin:  %+v\n grouped: %+v", seed, i, ref.snaps[i], got.snaps[i])
			}
		}
		if !reflect.DeepEqual(ref.completions, got.completions) {
			t.Fatalf("seed %d: completion times diverge", seed)
		}
		if ref.cross != got.cross || ref.total != got.total || ref.served != got.served {
			t.Fatalf("seed %d: accounting diverges: maxmin (cross %x total %x served %d) grouped (cross %x total %x served %d)",
				seed, ref.cross, ref.total, ref.served, got.cross, got.total, got.served)
		}
	}
}

// TestGroupedBatchedRecompute verifies the same-instant batching contract: a
// burst of N flow starts triggers exactly one allocation, and N simultaneous
// completions are absorbed without any further allocation.
func TestGroupedBatchedRecompute(t *testing.T) {
	sim, n := newNet(t, NewGroupedMaxMin())
	allocs := 0
	n.OnAllocate = func() { allocs++ }
	// 4 equal flows per destination machine in rack 1, all from rack 0's
	// uplink: identical paths within each destination, identical rates, so
	// every flow completes at the same instant.
	for dst := 4; dst < 8; dst++ {
		for k := 0; k < 4; k++ {
			n.Start(k%4, dst, 1*gbps, 0, 0, nil)
		}
	}
	sim.Run()
	if allocs != 1 {
		t.Fatalf("burst of 16 same-instant starts triggered %d allocations, want exactly 1", allocs)
	}
}

// TestGroupedRequiresInternedFlows documents the pathID contract: flows
// constructed outside Network.StartPath cannot be grouped and must panic
// loudly rather than silently collapse into one class.
func TestGroupedRequiresInternedFlows(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("GroupedMaxMin accepted a flow with pathID 0")
		}
	}()
	f := &Flow{ID: 1, Bytes: 1, remaining: 1, path: []topology.LinkID{0, 1}}
	caps := []float64{gbps, gbps}
	NewGroupedMaxMin().Allocate([]*Flow{f}, caps, make([]float64, 2))
}

// TestGroupedAllocateSteadyStateZeroAlloc pins the zero-alloc contract:
// once scratch is warm, recomputes allocate nothing.
func TestGroupedAllocateSteadyStateZeroAlloc(t *testing.T) {
	c := topology.MustNew(topology.Config{
		Racks:            4,
		MachinesPerRack:  5,
		SlotsPerMachine:  2,
		NICBandwidth:     10 * gbps,
		Oversubscription: 5,
	})
	sim := des.New()
	n := New(sim, c, NewGroupedMaxMin())
	for dst := 0; dst < 20; dst++ {
		for src := 0; src < 20; src++ {
			if src != dst {
				n.Start(src, dst, 100*gbps, 0, 0, nil)
			}
		}
	}
	// Fire the initial recompute so n.flows is populated and rates exist.
	for sim.Step() && n.ActiveFlows() == 0 {
	}
	g := NewGroupedMaxMin()
	g.Allocate(n.flows, n.caps, n.scratch) // warm the scratch
	avg := testing.AllocsPerRun(100, func() {
		g.Allocate(n.flows, n.caps, n.scratch)
	})
	if avg != 0 {
		t.Fatalf("steady-state Allocate performs %.1f allocations per call, want 0", avg)
	}
}
