package netsim

import (
	"math/rand"
	"slices"
	"testing"

	"corral/internal/des"
	"corral/internal/topology"
)

// benchNetwork builds a paper-scale cluster (50 racks × 40 machines, §6.6)
// carrying ~nFlows exec-shaped shuffle flows. Jobs are heterogeneous the way
// real workload traces are: each destination machine runs a varying number
// of reducers (1–8) pulling rack-aggregated transfers from a varying fan-in
// of source racks (1–10), spread across the whole cluster. Reducers on one
// machine pulling from the same rack share identical link paths — the
// equivalence structure GroupedMaxMin exploits — while the uneven per-link
// loads make bottlenecks cascade through many fill levels, as they do in
// the W1–W4 sweeps.
func benchNetwork(b *testing.B, nFlows int) *Network {
	b.Helper()
	c := topology.MustNew(topology.Config{
		Racks:            50,
		MachinesPerRack:  40,
		SlotsPerMachine:  2,
		NICBandwidth:     10 * gbps,
		Oversubscription: 5,
	})
	sim := des.New()
	n := New(sim, c, MaxMinFair{})
	started := 0
	for dst := 0; started < nFlows; dst = (dst + 137) % (c.Config.Racks * c.Config.MachinesPerRack) {
		dstRack := c.RackOf(dst)
		reducers := 1 + dst%8
		srcRacks := 1 + dst%10
		for s := 0; s < srcRacks && started < nFlows; s++ {
			srcRack := (dstRack + 1 + s*5) % c.Config.Racks
			path := []topology.LinkID{c.RackUplink(srcRack), c.RackDownlink(dstRack), c.MachineDownlink(dst)}
			for r := 0; r < reducers && started < nFlows; r++ {
				n.StartPath(path, true, 1*gbps, CoflowID(dst), 0, nil)
				started++
			}
		}
	}
	return n
}

func benchmarkAllocate(b *testing.B, p Policy, nFlows int) {
	n := benchNetwork(b, nFlows)
	p.Allocate(n.flows, n.caps, n.scratch) // warm any policy scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Allocate(n.flows, n.caps, n.scratch)
	}
}

func BenchmarkRecomputeMaxMin1k(b *testing.B)  { benchmarkAllocate(b, MaxMinFair{}, 1000) }
func BenchmarkRecomputeMaxMin10k(b *testing.B) { benchmarkAllocate(b, MaxMinFair{}, 10000) }

func BenchmarkRecomputeGrouped1k(b *testing.B)  { benchmarkAllocate(b, NewGroupedMaxMin(), 1000) }
func BenchmarkRecomputeGrouped10k(b *testing.B) { benchmarkAllocate(b, NewGroupedMaxMin(), 10000) }

// benchmarkAllocateChurn measures the recompute-under-churn regime the
// incremental allocator is built for: every iteration one rack uplink's
// capacity flips (a link fault toggling), dirtying that component only, and
// the allocator recomputes. For the stateful allocators the cache is warm —
// this is the per-event cost a long simulation actually pays, as opposed to
// benchmarkAllocate's identical-input rounds.
func benchmarkAllocateChurn(b *testing.B, p Policy, nFlows int) {
	n := benchNetwork(b, nFlows)
	p.Allocate(n.flows, n.caps, n.scratch) // warm policy cache/scratch
	base := make([]float64, len(n.caps))
	copy(base, n.caps)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := int(topoRackUplink(n, i%50))
		if i%2 == 0 {
			n.caps[l] = base[l] * 0.9
		} else {
			n.caps[l] = base[l]
		}
		p.Allocate(n.flows, n.caps, n.scratch)
	}
	b.StopTimer()
	if inc, ok := p.(*IncrementalMaxMin); ok {
		if incRounds, _ := inc.Rounds(); b.N > 4 && incRounds == 0 {
			b.Fatal("incremental path never taken: the benchmark is measuring the full pass")
		}
	}
}

// topoRackUplink resolves rack r's uplink on the benchmark cluster.
func topoRackUplink(n *Network, r int) topology.LinkID { return n.cluster.RackUplink(r) }

func BenchmarkRecomputeIncremental1k(b *testing.B) {
	benchmarkAllocateChurn(b, NewIncrementalMaxMin(), 1000)
}
func BenchmarkRecomputeIncremental10k(b *testing.B) {
	benchmarkAllocateChurn(b, NewIncrementalMaxMin(), 10000)
}

// BenchmarkRecomputeGroupedChurn10k is the incremental benchmark's control:
// the same churn stream through the full grouped pass, so the two rows'
// ratio is the incremental win in isolation.
func BenchmarkRecomputeGroupedChurn10k(b *testing.B) {
	benchmarkAllocateChurn(b, NewGroupedMaxMin(), 10000)
}

// dc2kFlows builds the allocator input of a 2k-machine scale cell in
// mid-run (50 racks × 40 machines, 10 Gbps NICs, 5:1 oversubscription):
// Corral confines most jobs to one rack, so most flows are in-rack — map
// input reads between machine NICs and rack-local shuffle transfers into a
// reducer's NIC — while jobs spanning two racks and remote input reads add
// cross-rack paths that chain racks, and the machines behind them, into
// one large component beside dozens of small rack-local ones. The 2k cell
// averages ~650 flows, ~390 path groups and ~54 components per allocator
// call, the largest ~300 of ~390 live links; this set has 632 flows, 392
// groups and 48 components, the largest 314 links. The last churn flows
// are the ones rounds drop and restore, drawn from every kind above.
func dc2kFlows(b *testing.B) (n *Network, churn int) {
	b.Helper()
	c := topology.MustNew(topology.Config{
		Racks:            50,
		MachinesPerRack:  40,
		SlotsPerMachine:  2,
		NICBandwidth:     10 * gbps,
		Oversubscription: 5,
	})
	n = New(des.New(), c, MaxMinFair{})
	rng := rand.New(rand.NewSource(2000))
	// machine draws one of the first 20 machines of rack r: the ones a
	// job on the rack occupies.
	machine := func(r int) int { return r*c.Config.MachinesPerRack + rng.Intn(20) }
	var held []*Flow
	hold := func(f *Flow) {
		if rng.Intn(40) == 0 {
			held = append(held, f)
		}
	}
	start := func(src, dst int) { hold(n.Start(src, dst, 1*gbps, 0, 0, nil)) }
	// Ten racks carry the jobs spanning racks: rack-aggregated shuffle
	// transfers and remote input reads between them chain their rack
	// links and the machines behind them into one large component, and
	// most rack-local input reads there join it.
	for i := 0; i < 110; i++ {
		r1, r2 := rng.Intn(10), rng.Intn(10)
		if r1 == r2 {
			continue
		}
		path := []topology.LinkID{c.RackUplink(r1), c.RackDownlink(r2), c.MachineDownlink(machine(r2))}
		for k := rng.Intn(4); k >= 0; k-- {
			hold(n.StartPath(path, true, 1*gbps, 0, 0, nil))
		}
		start(machine(r1), machine(r2))
	}
	for i := 0; i < 170; i++ {
		r := rng.Intn(10)
		if src, dst := machine(r), machine(r); src != dst {
			start(src, dst)
		}
	}
	// The other racks run rack-local jobs: a reducer's shuffle transfers,
	// each its own small component.
	for r := 10; r < 50; r++ {
		path := []topology.LinkID{c.MachineDownlink(machine(r))}
		for k := rng.Intn(6); k >= 0; k-- {
			hold(n.StartPath(path, false, 1*gbps, 0, 0, nil))
		}
	}
	// Move the held flows to the tail, where rounds drop and restore them.
	w := 0
	for _, f := range n.flows {
		if !slices.Contains(held, f) {
			n.flows[w] = f
			w++
		}
	}
	copy(n.flows[w:], held)
	return n, len(held)
}

// BenchmarkRecomputeIncrementalDC2k measures warm incremental rounds on
// the 2k cell's flow shape (dc2kFlows): every iteration drops or restores
// a few of the churn flows, so groups vanish, reappear and resize in the
// large component and in small ones, as flow completions and task starts
// do in a run. It reports the shape it measured and fails unless warm
// rounds allocate nothing.
func BenchmarkRecomputeIncrementalDC2k(b *testing.B) {
	n, churn := dc2kFlows(b)
	all := n.flows
	inc := NewIncrementalMaxMin()
	inc.Allocate(all, n.caps, n.scratch)
	groups, comps, largest := len(inc.live), 0, 0
	for ci := range inc.comps {
		if c := &inc.comps[ci]; c.live {
			comps++
			links := 0
			for l := c.head; l >= 0; l = inc.linkNext[l] {
				links++
			}
			largest = max(largest, links)
		}
	}
	// Drop 0, 1/3, 2/3, all, 2/3, 1/3 … of the churn flows in turn.
	round := func(i int) {
		d := i % 6
		if d > 3 {
			d = 6 - d
		}
		inc.Allocate(all[:len(all)-d*churn/3], n.caps, n.scratch)
	}
	i := 0
	if allocs := testing.AllocsPerRun(24, func() { round(i); i++ }); allocs != 0 {
		b.Fatalf("warm rounds perform %.1f allocations per call, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round(i)
	}
	b.StopTimer()
	b.ReportMetric(float64(len(all)), "flows")
	b.ReportMetric(float64(groups), "groups")
	b.ReportMetric(float64(comps), "components")
	b.ReportMetric(float64(largest), "largest-links")
}
