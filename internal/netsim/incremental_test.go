package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"corral/internal/des"
	"corral/internal/topology"
)

// incFlow builds a Flow the way StartPath would have, with an explicit
// interned pathID, for driving allocators directly in tests.
func incFlow(id int64, pathID int32, path []topology.LinkID) *Flow {
	return &Flow{ID: id, Bytes: 1, remaining: 1, path: path, pathID: pathID}
}

// ratesBits captures every flow's rate bit-exactly, in slice order.
func ratesBits(flows []*Flow) []uint64 {
	out := make([]uint64, len(flows))
	for i, f := range flows {
		out[i] = math.Float64bits(f.rate)
	}
	return out
}

// assertSameAsFresh allocates the same flow set under a fresh GroupedMaxMin
// and a fresh MaxMinFair and requires the candidate's rates to match both
// bit for bit.
func assertSameAsFresh(t *testing.T, label string, flows []*Flow, caps []float64) {
	t.Helper()
	got := ratesBits(flows)
	scratch := make([]float64, len(caps))
	NewGroupedMaxMin().Allocate(flows, caps, scratch)
	if want := ratesBits(flows); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: rates diverge from fresh GroupedMaxMin:\n got:  %v\n want: %v", label, got, want)
	}
	MaxMinFair{}.Allocate(flows, caps, scratch)
	if want := ratesBits(flows); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: rates diverge from fresh MaxMinFair:\n got:  %v\n want: %v", label, got, want)
	}
}

// TestIncrementalWarmRoundsAlwaysIncremental pins the round accounting:
// only the first non-empty round builds the tables cold, and every later
// round diffs against them, however much of the flow set changed — one
// group, most groups, or every group replaced — with rates bit-identical
// to a fresh pass throughout. Empty rounds are not counted.
func TestIncrementalWarmRoundsAlwaysIncremental(t *testing.T) {
	const nGroups = 8
	caps := make([]float64, nGroups)
	for i := range caps {
		caps[i] = float64(i+1) * gbps // distinct caps so rates are distinct
	}
	scratch := make([]float64, nGroups)
	// paths[k] is the single-link path of group k (pathID k+1).
	paths := make([][]topology.LinkID, nGroups)
	for k := range paths {
		paths[k] = []topology.LinkID{topology.LinkID(k)}
	}
	var flows []*Flow
	nextID := int64(1)
	addFlow := func(group int) {
		flows = append(flows, incFlow(nextID, int32(group+1), paths[group]))
		nextID++
	}
	for k := 0; k < nGroups; k++ {
		addFlow(k)
	}

	inc := NewIncrementalMaxMin()
	round := func(label string, wantInc int) {
		t.Helper()
		inc.Allocate(flows, caps, scratch)
		assertSameAsFresh(t, label, flows, caps)
		if gotInc, gotFull := inc.Rounds(); gotInc != wantInc || gotFull != 1 {
			t.Fatalf("%s: rounds (inc %d, full %d), want (inc %d, full 1)",
				label, gotInc, gotFull, wantInc)
		}
	}

	round("cold", 0)
	addFlow(0) // 1 of 8 groups changes
	round("one group", 1)
	for k := 1; k < nGroups; k++ {
		addFlow(k) // the other 7 change
	}
	round("most groups", 2)
	round("no change", 3)
	inc.Allocate(nil, caps, scratch) // empty round: not counted
	flows = flows[:0]
	for k := nGroups - 1; k >= 0; k-- {
		addFlow(k)
		addFlow(k)
		addFlow(k) // every group's count changes
	}
	round("every group", 4)
	flows = flows[:1] // seven paths vanish
	round("vanish", 5)
}

// TestIncrementalDirtyRules exercises each cache-invalidation rule in
// isolation — capacity change, vanished bridging path, and pure cache
// reuse — and verifies rates stay bit-identical to a full pass.
func TestIncrementalDirtyRules(t *testing.T) {
	caps := []float64{2 * gbps, 3 * gbps, 5 * gbps, 7 * gbps}
	scratch := make([]float64, len(caps))
	pathA := []topology.LinkID{0}
	pathB := []topology.LinkID{1}
	pathC := []topology.LinkID{0, 1} // bridges A's and B's components
	pathD := []topology.LinkID{2, 3}
	fA := incFlow(1, 1, pathA)
	fB := incFlow(2, 2, pathB)
	fC := incFlow(3, 3, pathC)
	fD := incFlow(4, 4, pathD)

	inc := NewIncrementalMaxMin()

	all := []*Flow{fA, fB, fC, fD}
	inc.Allocate(all, caps, scratch)
	assertSameAsFresh(t, "cold", all, caps)

	// Vanished bridge: dropping C splits {0,1} into two components; both
	// must be re-filled, D's component is untouched.
	noBridge := []*Flow{fA, fB, fD}
	inc.Allocate(noBridge, caps, scratch)
	assertSameAsFresh(t, "vanished bridge", noBridge, caps)

	// Capacity change on link 0 dirties only A's component.
	caps[0] = 1 * gbps
	inc.Allocate(noBridge, caps, scratch)
	assertSameAsFresh(t, "capacity change", noBridge, caps)

	// No change at all: pure cache reuse must reproduce the same rates.
	before := ratesBits(noBridge)
	inc.Allocate(noBridge, caps, scratch)
	if !reflect.DeepEqual(before, ratesBits(noBridge)) {
		t.Fatal("clean cache reuse changed rates")
	}
	assertSameAsFresh(t, "clean reuse", noBridge, caps)

	if gotInc, _ := inc.Rounds(); gotInc != 3 {
		t.Fatalf("incremental path ran %d times, want 3 (vanish, caps, reuse)", gotInc)
	}
}

// TestIncrementalBitIdenticalToGrouped is the differential gate for the
// incremental allocator: the randomized scripts (starts, cancels, link
// faults, rack-aggregated paths) replayed under GroupedMaxMin and
// IncrementalMaxMin must produce bit-identical allocations, completions
// and accounting.
func TestIncrementalBitIdenticalToGrouped(t *testing.T) {
	c := topology.MustNew(topology.Config{
		Racks:            4,
		MachinesPerRack:  5,
		SlotsPerMachine:  2,
		NICBandwidth:     10 * gbps,
		Oversubscription: 5,
	})
	totalInc := 0
	for seed := int64(1); seed <= 8; seed++ {
		ops := genScript(rand.New(rand.NewSource(seed)), c, 300)
		ref := replay(c, ops, NewGroupedMaxMin())
		inc := NewIncrementalMaxMin()
		got := replay(c, ops, inc)
		if len(ref.snaps) != len(got.snaps) {
			t.Fatalf("seed %d: %d allocations under grouped, %d under incremental",
				seed, len(ref.snaps), len(got.snaps))
		}
		for i := range ref.snaps {
			if !reflect.DeepEqual(ref.snaps[i], got.snaps[i]) {
				t.Fatalf("seed %d: allocation %d diverges:\n grouped:     %+v\n incremental: %+v",
					seed, i, ref.snaps[i], got.snaps[i])
			}
		}
		if !reflect.DeepEqual(ref.completions, got.completions) {
			t.Fatalf("seed %d: completion times diverge", seed)
		}
		if ref.cross != got.cross || ref.total != got.total || ref.served != got.served {
			t.Fatalf("seed %d: accounting diverges", seed)
		}
		gotInc, _ := inc.Rounds()
		totalInc += gotInc
	}
	if totalInc == 0 {
		t.Fatal("incremental path never ran across any seed: differential test is vacuous")
	}
}

// TestIncrementalBitIdenticalUnderPooling runs the differential scripts
// with Flow pooling on the incremental side only: object recycling must be
// invisible to rates, completions and accounting.
func TestIncrementalBitIdenticalUnderPooling(t *testing.T) {
	c := topology.MustNew(topology.Config{
		Racks:            4,
		MachinesPerRack:  5,
		SlotsPerMachine:  2,
		NICBandwidth:     10 * gbps,
		Oversubscription: 5,
	})
	for seed := int64(1); seed <= 4; seed++ {
		ops := genScript(rand.New(rand.NewSource(seed)), c, 300)
		ref := replay(c, ops, NewGroupedMaxMin())
		got := replayWith(c, ops, NewIncrementalMaxMin(), true)
		if !reflect.DeepEqual(ref.snaps, got.snaps) {
			t.Fatalf("seed %d: allocations diverge between grouped and pooled incremental", seed)
		}
		if !reflect.DeepEqual(ref.completions, got.completions) {
			t.Fatalf("seed %d: completion times diverge under pooling", seed)
		}
		if ref.cross != got.cross || ref.total != got.total || ref.served != got.served {
			t.Fatalf("seed %d: accounting diverges under pooling", seed)
		}
	}
}

// TestFlowPoolingRecyclesObjects proves the pool actually engages: after
// flows retire, new starts reuse the same Flow objects.
func TestFlowPoolingRecyclesObjects(t *testing.T) {
	sim, n := newNet(t, NewIncrementalMaxMin())
	n.SetFlowPooling(true)
	first := n.Start(0, 4, 1*gbps, 0, 0, nil)
	sim.Run()
	if len(n.flowPool) != 1 {
		t.Fatalf("pool holds %d flows after completion, want 1", len(n.flowPool))
	}
	second := n.Start(1, 5, 1*gbps, 0, 0, nil)
	if second != first {
		t.Fatal("retired Flow object was not recycled for the next start")
	}
	sim.Run()
	// Loopback flows must never come from (or land in) the pool.
	loop := n.Start(2, 2, 1*gbps, 0, 0, nil)
	if loop == second {
		t.Fatal("loopback flow was served from the pool")
	}
	sim.Run()
	if len(n.flowPool) != 1 {
		t.Fatalf("pool holds %d flows after loopback completion, want 1 (loopback never pooled)", len(n.flowPool))
	}
}

// TestIncrementalAllocateSteadyStateZeroAlloc pins the zero-alloc
// contract for the incremental path: once cache and scratch are warm,
// recomputes — diff, clean-component reuse and cache refresh included —
// allocate nothing.
func TestIncrementalAllocateSteadyStateZeroAlloc(t *testing.T) {
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
	for sim.Step() && n.ActiveFlows() == 0 {
	}
	inc := NewIncrementalMaxMin()
	inc.Allocate(n.flows, n.caps, n.scratch) // cold full pass, grows scratch
	inc.Allocate(n.flows, n.caps, n.scratch) // first diff, grows compDirty
	avg := testing.AllocsPerRun(100, func() {
		inc.Allocate(n.flows, n.caps, n.scratch)
	})
	if avg != 0 {
		t.Fatalf("steady-state Allocate performs %.1f allocations per call, want 0", avg)
	}
	if gotInc, _ := inc.Rounds(); gotInc == 0 {
		t.Fatal("incremental path never ran: zero-alloc test is vacuous")
	}
}

// TestIncrementalEdgeCases drives the warm-table code paths through flow
// sets chosen to hit their corners, checking every round bit for bit
// against a fresh GroupedMaxMin and MaxMinFair.
func TestIncrementalEdgeCases(t *testing.T) {
	// run allocates each flow set in turn on one warm allocator.
	run := func(t *testing.T, caps []float64, rounds ...[]*Flow) *IncrementalMaxMin {
		t.Helper()
		inc := NewIncrementalMaxMin()
		scratch := make([]float64, len(caps))
		for i, flows := range rounds {
			inc.Allocate(flows, caps, scratch)
			assertSameAsFresh(t, fmt.Sprintf("round %d", i), flows, caps)
		}
		if gotInc, _ := inc.Rounds(); gotInc != len(rounds)-1 {
			t.Fatalf("%d warm rounds, want %d", gotInc, len(rounds)-1)
		}
		return inc
	}
	path := func(ls ...int) []topology.LinkID {
		p := make([]topology.LinkID, len(ls))
		for i, l := range ls {
			p[i] = topology.LinkID(l)
		}
		return p
	}
	// caps gives n links capacities that are not multiples of one another,
	// so the fill's float sums round differently on every link.
	caps := func(n int) []float64 {
		c := make([]float64, n)
		for l := range c {
			c[l] = gbps * (1 + float64((l*37)%11)/3)
		}
		return c
	}

	// Links on both sides of the bitmap's word boundaries (63|64,
	// 127|128) join, split and rejoin one component.
	t.Run("bitmap word boundaries", func(t *testing.T) {
		a := incFlow(1, 1, path(63, 64))
		b := incFlow(2, 2, path(127, 128))
		bridge := incFlow(3, 3, path(64, 127))
		low := incFlow(4, 4, path(0, 63))
		high := incFlow(5, 5, path(128, 191))
		a2 := incFlow(6, 1, path(63, 64))
		run(t, caps(192),
			[]*Flow{a, b, low, high},
			[]*Flow{a, b, bridge, low, high}, // bridge joins both boundaries
			[]*Flow{a, a2, b, bridge, high},  // low vanishes, a grows
			[]*Flow{a, b, high},              // bridge vanishes: split
			[]*Flow{bridge, low},             // only the boundary links 0,63,64,127
		)
	})

	// One chain component whose links saturate at different levels. Links
	// 0 and 1 tie on the first level (2/1 = 4/2); the lower id must win,
	// and link 1 then saturates at a zero-delta level of its own. Later
	// rounds resize groups so the warm path refills the component.
	t.Run("links die at different levels", func(t *testing.T) {
		c := []float64{2 * gbps, 4 * gbps, 6.1 * gbps, 3.3 * gbps, 9.7 * gbps, 1.9 * gbps, 5 * gbps}
		fa := incFlow(1, 1, path(0, 1))
		fb := incFlow(2, 2, path(1, 2))
		fc := incFlow(3, 3, path(2, 3))
		fd := incFlow(4, 4, path(3, 4))
		fe := incFlow(5, 5, path(4, 5))
		ff := incFlow(6, 6, path(5))
		fg := incFlow(7, 7, path(6)) // a separate component that stays clean
		fc2 := incFlow(8, 3, path(2, 3))
		fe2 := incFlow(9, 5, path(4, 5))
		run(t, c,
			[]*Flow{fa, fb, fc, fd, fe, ff, fg},
			[]*Flow{fa, fb, fc, fc2, fd, fe, ff, fg},
			[]*Flow{fa, fb, fc, fc2, fd, fe, fe2, ff, fg},
			[]*Flow{fa, fb, fc, fd, fe, fe2, ff, fg},
		)
	})

	// A tie on the bottleneck level that decides the bits: links 0 and 1
	// both saturate at level x = y/7, but charging link 1 leaves
	// y − 7x = 2.4e-7 B/s behind. Taking link 0 first (the lowest id, as
	// the reference does) freezes the six-member group on link 1 one ulp
	// above x at the next level; taking link 1 first would freeze it at x.
	// Link 2 saturates at a later level.
	t.Run("tie on the bottleneck level", func(t *testing.T) {
		y := 1891950000.0
		x := y / 7
		c := []float64{x, y, 3 * y}
		g1 := incFlow(1, 1, path(0, 1))
		var g2 []*Flow
		for i := 0; i < 6; i++ {
			g2 = append(g2, incFlow(int64(10+i), 2, path(1, 2)))
		}
		g3 := incFlow(20, 3, path(2))
		five := append([]*Flow{g1, g3}, g2[:5]...)
		six := append([]*Flow{g1, g3}, g2...)
		run(t, c, five, six, five, six)
		if math.Float64bits(g2[0].rate) == math.Float64bits(x) {
			t.Fatalf("six-member group froze at x = %v: the tie did not go to the lowest link id", x)
		}
	})

	// A path vanishes, its group slot is reused by a new path, and the
	// first path returns under its old pathID with another member count.
	// a and b share bottleneck link 2, so a's leaving alone doubles b's
	// rate.
	t.Run("path vanishes and returns", func(t *testing.T) {
		a := incFlow(1, 1, path(0, 2))
		b := incFlow(2, 2, path(1, 2))
		cNew := incFlow(3, 3, path(1, 3))
		aBack := incFlow(4, 1, path(0, 2))
		aBack2 := incFlow(5, 1, path(0, 2))
		run(t, []float64{10 * gbps, 10 * gbps, 4 * gbps, 3.3 * gbps},
			[]*Flow{a, b},
			[]*Flow{b},
			[]*Flow{b, cNew},
			[]*Flow{aBack, b, cNew, aBack2},
			[]*Flow{b},
			[]*Flow{aBack, b},
		)
	})

	// Link faults while the tables are warm: a used link degrades, goes
	// out, and recovers; an unused link changes without effect.
	t.Run("link fault on warm tables", func(t *testing.T) {
		c := caps(6)
		flows := []*Flow{
			incFlow(1, 1, path(0, 1)),
			incFlow(2, 2, path(1, 2)),
			incFlow(3, 3, path(3, 4)),
		}
		inc := NewIncrementalMaxMin()
		scratch := make([]float64, len(c))
		base := append([]float64(nil), c...)
		for i, fault := range []struct {
			link   int
			factor float64
		}{{0, 1}, {1, 0.3}, {1, 0}, {5, 0.5}, {1, 1}, {3, 0.7}, {0, 1}} {
			c[fault.link] = base[fault.link] * fault.factor
			inc.Allocate(flows, c, scratch)
			assertSameAsFresh(t, fmt.Sprintf("fault %d", i), flows, c)
		}
		if gotInc, _ := inc.Rounds(); gotInc != 6 {
			t.Fatalf("%d warm rounds, want 6", gotInc)
		}
	})

	// Random churn over 200 links: short paths drawn around the word
	// boundaries, groups appearing, vanishing and resizing, and capacity
	// changes, for many warm rounds.
	t.Run("random churn", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		c := caps(200)
		hot := []int{0, 1, 62, 63, 64, 65, 126, 127, 128, 129, 190, 199}
		link := func() int {
			if rng.Intn(3) > 0 {
				return hot[rng.Intn(len(hot))]
			}
			return rng.Intn(len(c))
		}
		paths := make([][]topology.LinkID, 40)
		for i := range paths {
			seen := map[int]bool{}
			for k := 1 + rng.Intn(3); k > 0; k-- {
				if l := link(); !seen[l] {
					seen[l] = true
					paths[i] = append(paths[i], topology.LinkID(l))
				}
			}
		}
		inc := NewIncrementalMaxMin()
		scratch := make([]float64, len(c))
		var flows []*Flow
		for round := 0; round < 200; round++ {
			for k := rng.Intn(4); k > 0; k-- {
				pid := rng.Intn(len(paths))
				flows = append(flows, incFlow(int64(round*10+k), int32(pid+1), paths[pid]))
			}
			for k := rng.Intn(4); k > 0 && len(flows) > 0; k-- {
				i := rng.Intn(len(flows))
				flows = append(flows[:i], flows[i+1:]...)
			}
			if rng.Intn(5) == 0 {
				l := link()
				c[l] = gbps * []float64{0, 0.3, 1, 2.7}[rng.Intn(4)]
			}
			if len(flows) == 0 {
				continue
			}
			inc.Allocate(flows, c, scratch)
			assertSameAsFresh(t, fmt.Sprintf("round %d", round), flows, c)
		}
		if gotInc, _ := inc.Rounds(); gotInc < 100 {
			t.Fatalf("only %d warm rounds", gotInc)
		}
	})
}
