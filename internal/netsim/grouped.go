package netsim

import "corral/internal/topology"

// GroupedMaxMin is max-min water filling over path equivalence classes:
// flows sharing an identical link path (same Network-interned pathID)
// collapse into one group before filling. On the two-level CLOS there are
// only O(racks²) distinct paths regardless of flow count — the execution
// engine's rack-aggregated shuffle transfers reuse a handful of paths per
// destination machine — so the fill loop runs over hundreds of groups
// instead of tens of thousands of flows.
//
// Equivalence contract: rates are bit-identical to MaxMinFair. Flows in one
// class are indistinguishable to progressive filling (same links, same
// freeze instant), and maxMinFill charges links with one aggregated
// delta·count operation per link per level, which is exactly the arithmetic
// fillComponent performs on group counts. Each member flow's rate in the
// reference is the same sum 0 + δ₁ + δ₂ + … accumulated below per group.
// The seeded differential tests in grouped_test.go enforce this bit for bit.
//
// Like the reference, filling is component-local: live links are
// partitioned into connected components via the groups' paths, and each
// component is filled with its own level/accumulator against its own links
// only. A component's rates are therefore a pure function of its
// (path, member-count) multiset and its links' capacities — the invariant
// IncrementalMaxMin exploits to keep the rates of components whose inputs
// did not change (see incremental.go).
//
// GroupedMaxMin is IncrementalMaxMin with its tables dropped before every
// round: each Allocate is a cold round that builds every group and
// component and fills them all. It is the differential tests' cache-free
// oracle for the incremental allocator; MaxMinFair is the independent one.
// It is stateful (reused scratch, allocation-free in the steady state):
// use one instance per Network, never share one across concurrently
// running simulations.
type GroupedMaxMin struct {
	inc IncrementalMaxMin
}

type pathGroup struct {
	path   []topology.LinkID
	count  int   // member flows
	comp   int32 // component slot; -1 while the group is being placed
	next   int32 // next group of the component
	rate   float64
	frozen bool
}

// NewGroupedMaxMin returns a grouped allocator for use by one Network.
func NewGroupedMaxMin() *GroupedMaxMin { return &GroupedMaxMin{} }

// Name implements Policy.
func (g *GroupedMaxMin) Name() string { return "maxmin-grouped" }

// Allocate implements Policy. Panics if any flow was constructed outside
// Network.StartPath (pathID 0): grouping needs the interned path identity.
//
// The steady state is allocation-free (grow-once tables and free lists),
// pinned dynamically by BenchmarkRecomputeGrouped10k and statically by the
// hotalloc analyzer via the marker below.
//
//corral:hotpath
func (g *GroupedMaxMin) Allocate(flows []*Flow, caps []float64, scratch []float64) {
	g.inc.reset()
	g.inc.Allocate(flows, caps, scratch)
}

// fillComponent water-fills one component's groups over its own links and
// returns the final fill accumulator. links is the component's link list
// in ascending id order; it is consumed as scratch. cnt[l] must hold the
// member count of the component's groups crossing l, remaining[l] the
// link's capacity, and every group of the component must be unfrozen;
// unfrozen is their number.
//
// Every unfrozen group has base rate 0 and receives the same delta at every
// level, so one shared accumulator (rateAcc, summed with exactly the
// reference's 0 + δ₁ + δ₂ + … operation order) stands in for all of them: a
// group's rate is the accumulator's value at the instant it freezes.
// Groups left unfrozen (no constrained links, impossible on our topology
// but kept for parity with the reference's early break) take the returned
// accumulator.
//
// The bottleneck scan compacts links in place to those still carrying
// unfrozen members, keeping ascending order, so the charge loop and every
// later level visit live links only. A link whose count reached 0 is
// skipped by the reference too; the same floats are combined in the same
// order, and strict < still picks the lowest link id on ties, as the
// reference's full-table scan does.
//
//corral:hotpath
func fillComponent(links []int32, unfrozen int, remaining []float64, cnt []int, linkGroups [][]int32, groups []pathGroup) float64 {
	level := 0.0
	rateAcc := 0.0
	for unfrozen > 0 {
		bottleneck := -1
		bottleneckLevel := 0.0
		live := 0
		for _, l32 := range links {
			l := int(l32)
			c := cnt[l]
			if c == 0 {
				continue
			}
			links[live] = l32
			live++
			lv := level + remaining[l]/float64(c)
			if bottleneck == -1 || lv < bottleneckLevel {
				bottleneck = l
				bottleneckLevel = lv
			}
		}
		links = links[:live]
		if bottleneck == -1 {
			break
		}
		delta := bottleneckLevel - level
		rateAcc += delta
		for _, l32 := range links {
			l := int(l32)
			remaining[l] -= delta * float64(cnt[l])
			if remaining[l] < 0 {
				remaining[l] = 0 // numerical dust
			}
		}
		level = bottleneckLevel
		for _, gi := range linkGroups[bottleneck] {
			grp := &groups[gi]
			if grp.frozen {
				continue
			}
			grp.frozen = true
			grp.rate = rateAcc
			unfrozen--
			for _, l2 := range grp.path {
				cnt[int(l2)] -= grp.count
			}
		}
		remaining[bottleneck] = 0
		cnt[bottleneck] = 0
	}
	return rateAcc
}
