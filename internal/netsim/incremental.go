package netsim

import (
	"math/bits"

	"corral/internal/topology"
)

// IncrementalMaxMin is the production allocator: grouped max-min water
// filling (grouped.go has the arithmetic and its equivalence to MaxMinFair)
// over group, link and component tables that persist across rounds. One
// Allocate costs work proportional to the flows, the live links and the
// components whose inputs changed, not to every link or path ever used.
//
// Kept between rounds:
//
//   - one group per live interned path, with its member count, its
//     component and its last rate;
//   - per link: base[l], the member count of the live groups crossing it;
//     linkGroups[l], those groups; linkComp[l], its component (-1 when no
//     live group crosses it); capAt[l], the capacity its component was last
//     filled at;
//   - the components: the connected sets of live links and groups. Each
//     threads its links, in ascending id order, through linkNext and its
//     groups through pathGroup.next, so a component slot owns no storage
//     and reusing one for a component of another size never allocates.
//
// Each round counts the flows per pathID and diffs the counts against the
// group table:
//
//   - a path that appeared or vanished changes the component structure:
//     every component it touches is dissolved, and the surviving groups
//     of those components are re-partitioned together with the new groups
//     (a vanished path may have bridged what are now separate components;
//     a new one may bridge what were separate);
//   - a path whose member count changed dirties its component;
//   - a live link whose capacity differs from capAt dirties its component
//     (a link fault or repair).
//
// Only dirty components are filled; the groups of every other component
// keep their rates. That is bit-identical to filling everything: a
// component's rates are a pure function of its (path, count) group
// multiset and its links' capacities, computed with a deterministic float
// sequence (fill is component-local, see grouped.go), and a component no
// rule touched has exactly the groups, counts and capacities it was last
// filled with. The seeded differential tests in incremental_test.go
// enforce the equivalence bit for bit against both GroupedMaxMin and
// MaxMinFair, across starts, cancels, link faults and Flow pooling.
//
// Like GroupedMaxMin it is stateful and single-Network: use
// NewIncrementalMaxMin per simulation. The tables take part in
// snapshot/resume without serialization because restore replays the event
// history, rebuilding them through the same allocation sequence.
type IncrementalMaxMin struct {
	// Per-pathID tables, grown as paths are interned. cur[id] is this
	// round's member count when stamp[id] == round; groupOf[id] is the
	// path's group slot, -1 while the path is not live.
	stamp   []int32
	cur     []int32
	groupOf []int32
	round   int32

	// seen lists this round's pathIDs in first-flow order, live the
	// previous non-empty round's.
	seen []int32
	live []int32

	// groups is indexed by group slot; freeGroups holds released slots.
	groups     []pathGroup
	freeGroups []int32

	// Per-link tables, indexed by link id. cnt is a fill's working copy of
	// base; parent and treeSize are the union-find forest of a
	// re-partition (union by size) and mark the bitmap of the links it
	// covers, nonzero only during repartition.
	base       []int
	cnt        []int
	linkGroups [][]int32
	linkComp   []int32
	linkNext   []int32
	capAt      []float64
	parent     []int32
	treeSize   []int32
	mark       []uint64

	// comps is indexed by component slot; freeComps holds released slots.
	comps     []component
	freeComps []int32

	// Per-round scratch: the components to dissolve, the groups that
	// appeared, the groups to re-partition, and a fill's live-link list.
	touched []int32
	added   []int32
	regroup []int32
	work    []int32

	// incRounds/fullRounds count Allocate calls on a warm and a cold
	// table; tests use them to prove the warm path actually ran.
	warm       bool
	incRounds  int
	fullRounds int
}

// component is one connected set of live links and the groups crossing
// them.
type component struct {
	head, tail int32   // ascending link list through linkNext; -1 ends it
	groups     int32   // group list through pathGroup.next; -1 ends it
	size       int     // groups in the list
	rate       float64 // the last fill's final accumulator
	live       bool
	dirty      bool // must be filled this round
	touched    bool // queued for dissolution this round
}

// NewIncrementalMaxMin returns an incremental allocator for use by one
// Network.
func NewIncrementalMaxMin() *IncrementalMaxMin { return &IncrementalMaxMin{} }

// Name implements Policy.
func (inc *IncrementalMaxMin) Name() string { return "maxmin-incremental" }

// Rounds reports how many Allocate calls diffed against warm tables and
// how many built them cold (the first non-empty round).
func (inc *IncrementalMaxMin) Rounds() (incremental, full int) {
	return inc.incRounds, inc.fullRounds
}

// Allocate implements Policy. Panics like GroupedMaxMin on flows not
// started via Network.StartPath. Only the links of the components it
// fills are written in scratch.
//
// Steady state is allocation-free: every table and scratch slice grows
// once and is reused, pinned by TestIncrementalAllocateSteadyStateZeroAlloc,
// BenchmarkRecomputeIncrementalDC2k and the hotalloc analyzer.
//
//corral:hotpath
func (inc *IncrementalMaxMin) Allocate(flows []*Flow, caps []float64, scratch []float64) {
	if len(flows) == 0 {
		// Nothing to rate; the tables still describe the last non-empty
		// round and stay valid for the next diff (capacity changes made
		// meanwhile are caught by the capAt rule then).
		return
	}
	if inc.warm {
		inc.incRounds++
	} else {
		inc.fullRounds++
		inc.warm = true
	}
	inc.growLinks(len(caps))
	inc.count(flows)
	inc.diff()
	if len(inc.touched) > 0 || len(inc.added) > 0 {
		inc.repartition()
	}
	for ci := range inc.comps {
		if c := &inc.comps[ci]; c.live && (c.dirty || inc.capsChanged(c, caps)) {
			inc.fill(c, caps, scratch)
		}
	}
	for _, f := range flows {
		f.rate = inc.groups[inc.groupOf[f.pathID]].rate
	}
}

// growLinks sizes the per-link tables for nLinks links.
func (inc *IncrementalMaxMin) growLinks(nLinks int) {
	if len(inc.base) >= nLinks {
		return
	}
	grow := nLinks - len(inc.base)
	inc.base = append(inc.base, make([]int, grow)...)
	inc.cnt = append(inc.cnt, make([]int, grow)...)
	inc.linkGroups = append(inc.linkGroups, make([][]int32, grow)...)
	inc.capAt = append(inc.capAt, make([]float64, grow)...)
	inc.parent = append(inc.parent, make([]int32, grow)...)
	inc.treeSize = append(inc.treeSize, make([]int32, grow)...)
	inc.linkNext = append(inc.linkNext, make([]int32, grow)...)
	for range grow {
		inc.linkComp = append(inc.linkComp, -1)
	}
	if words := (nLinks + 63) / 64; len(inc.mark) < words {
		inc.mark = append(inc.mark, make([]uint64, words-len(inc.mark))...)
	}
}

// count tallies this round's member flows per pathID into cur, lists the
// pathIDs in seen, and opens an empty group (count 0) for every path that
// is not live yet.
//
//corral:hotpath
func (inc *IncrementalMaxMin) count(flows []*Flow) {
	inc.round++
	if inc.round < 0 { // stamp counter wrapped; invalidate all stamps
		clear(inc.stamp)
		inc.round = 1
	}
	inc.seen = inc.seen[:0]
	for _, f := range flows {
		id := f.pathID
		if id == 0 {
			panic("netsim: grouped max-min allocation requires flows started via Network.StartPath (pathID unset)")
		}
		if int(id) >= len(inc.stamp) {
			inc.growPaths(int(id) + 1)
		}
		if inc.stamp[id] == inc.round {
			inc.cur[id]++
			continue
		}
		inc.stamp[id] = inc.round
		inc.cur[id] = 1
		inc.seen = append(inc.seen, id)
		if inc.groupOf[id] < 0 {
			inc.groupOf[id] = inc.newGroup(f.path)
		}
	}
}

// growPaths sizes the per-pathID tables for n pathIDs.
func (inc *IncrementalMaxMin) growPaths(n int) {
	grow := n - len(inc.stamp)
	inc.stamp = append(inc.stamp, make([]int32, grow)...)
	inc.cur = append(inc.cur, make([]int32, grow)...)
	for range grow {
		inc.groupOf = append(inc.groupOf, -1)
	}
}

// newGroup opens a group slot for a path with no members yet.
func (inc *IncrementalMaxMin) newGroup(path []topology.LinkID) int32 {
	grp := pathGroup{path: path, comp: -1}
	if n := len(inc.freeGroups); n > 0 {
		gi := inc.freeGroups[n-1]
		inc.freeGroups = inc.freeGroups[:n-1]
		inc.groups[gi] = grp
		return gi
	}
	inc.groups = append(inc.groups, grp)
	return int32(len(inc.groups) - 1)
}

// diff applies this round's counts to the group and link tables: vanished
// groups leave their links and dissolve their component, new groups join
// their links and dissolve every component they reach, and resized groups
// dirty their component.
//
//corral:hotpath
func (inc *IncrementalMaxMin) diff() {
	for _, id := range inc.live {
		if inc.stamp[id] == inc.round {
			continue // still live
		}
		gi := inc.groupOf[id]
		grp := &inc.groups[gi]
		inc.touch(grp.comp)
		for _, l := range grp.path {
			inc.base[l] -= grp.count
			inc.unlink(l, gi)
		}
		// Keep grp.next: the dissolving component's group list still
		// runs through this slot, which is reused next round at the
		// earliest.
		grp.path, grp.count, grp.comp = nil, 0, -1
		inc.groupOf[id] = -1
		inc.freeGroups = append(inc.freeGroups, gi)
	}
	for _, id := range inc.seen {
		gi := inc.groupOf[id]
		grp := &inc.groups[gi]
		c := int(inc.cur[id])
		if c == grp.count {
			continue
		}
		for _, l := range grp.path {
			inc.base[l] += c - grp.count
		}
		if grp.count == 0 {
			for _, l := range grp.path {
				inc.linkGroups[l] = append(inc.linkGroups[l], gi)
				if lc := inc.linkComp[l]; lc >= 0 {
					inc.touch(lc)
				}
			}
			inc.added = append(inc.added, gi)
		} else {
			inc.comps[grp.comp].dirty = true
		}
		grp.count = c
	}
	inc.live, inc.seen = inc.seen, inc.live
}

// touch queues component ci for dissolution.
func (inc *IncrementalMaxMin) touch(ci int32) {
	if c := &inc.comps[ci]; !c.touched {
		c.touched = true
		inc.touched = append(inc.touched, ci)
	}
}

// unlink removes group gi from link l's group list. The list's order is
// immaterial: every group frozen at one bottleneck takes the same rate.
func (inc *IncrementalMaxMin) unlink(l topology.LinkID, gi int32) {
	lg := inc.linkGroups[l]
	for i, g := range lg {
		if g == gi {
			lg[i] = lg[len(lg)-1]
			inc.linkGroups[l] = lg[:len(lg)-1]
			return
		}
	}
}

// repartition dissolves the touched components and partitions their
// surviving groups, together with the new groups, into fresh (dirty)
// components: union-find over the groups' links, then one ascending walk
// of the link bitmap, so every component lists its links in ascending id
// order without a sort.
//
//corral:hotpath
func (inc *IncrementalMaxMin) repartition() {
	gs := inc.regroup[:0]
	for _, ci := range inc.touched {
		c := &inc.comps[ci]
		for gi := c.groups; gi >= 0; gi = inc.groups[gi].next {
			if inc.groups[gi].comp == ci { // vanished groups were reset to -1
				gs = append(gs, gi)
			}
		}
		for l := c.head; l >= 0; l = inc.linkNext[l] {
			inc.linkComp[l] = -1
			if inc.base[l] > 0 {
				inc.markLink(l)
			}
		}
		c.live, c.touched = false, false
		inc.freeComps = append(inc.freeComps, ci)
	}
	for _, gi := range inc.added {
		for _, l := range inc.groups[gi].path {
			inc.markLink(int32(l))
		}
	}
	gs = append(gs, inc.added...)
	inc.touched = inc.touched[:0]
	inc.added = inc.added[:0]

	for _, gi := range gs {
		path := inc.groups[gi].path
		r0 := inc.find(int32(path[0]))
		for _, l := range path[1:] {
			r := inc.find(int32(l))
			if r == r0 {
				continue
			}
			if inc.treeSize[r0] < inc.treeSize[r] {
				r0, r = r, r0
			}
			inc.parent[r] = r0
			inc.treeSize[r0] += inc.treeSize[r]
		}
	}
	for w, word := range inc.mark {
		if word == 0 {
			continue
		}
		inc.mark[w] = 0
		for ; word != 0; word &= word - 1 {
			l := int32(w<<6 | bits.TrailingZeros64(word))
			r := inc.find(l)
			ci := inc.linkComp[r]
			if ci < 0 {
				ci = inc.newComp()
				inc.linkComp[r] = ci
			}
			inc.linkComp[l] = ci
			inc.linkNext[l] = -1
			c := &inc.comps[ci]
			if c.head < 0 {
				c.head = l
			} else {
				inc.linkNext[c.tail] = l
			}
			c.tail = l
		}
	}
	for _, gi := range gs {
		grp := &inc.groups[gi]
		grp.comp = inc.linkComp[grp.path[0]]
		c := &inc.comps[grp.comp]
		grp.next = c.groups
		c.groups = gi
		c.size++
	}
	inc.regroup = gs
}

// markLink adds link l to the re-partition as its own union-find root.
func (inc *IncrementalMaxMin) markLink(l int32) {
	w, b := l>>6, uint64(1)<<(l&63)
	if inc.mark[w]&b == 0 {
		inc.mark[w] |= b
		inc.parent[l] = l
		inc.treeSize[l] = 1
	}
}

// find resolves link l's union-find root with path compression. Only valid
// for links marked in the current re-partition.
func (inc *IncrementalMaxMin) find(l int32) int32 {
	for inc.parent[l] != l {
		inc.parent[l] = inc.parent[inc.parent[l]]
		l = inc.parent[l]
	}
	return l
}

// newComp opens an empty, dirty component slot.
func (inc *IncrementalMaxMin) newComp() int32 {
	c := component{head: -1, tail: -1, groups: -1, live: true, dirty: true}
	if n := len(inc.freeComps); n > 0 {
		ci := inc.freeComps[n-1]
		inc.freeComps = inc.freeComps[:n-1]
		inc.comps[ci] = c
		return ci
	}
	inc.comps = append(inc.comps, c)
	return int32(len(inc.comps) - 1)
}

// capsChanged reports whether any of c's links carries a capacity other
// than the one c was last filled at.
func (inc *IncrementalMaxMin) capsChanged(c *component, caps []float64) bool {
	for l := c.head; l >= 0; l = inc.linkNext[l] {
		//corralvet:ok floateq exact identity intended: cached-capacity diff; near-equal capacities are real changes that must refill the component
		if caps[l] != inc.capAt[l] {
			return true
		}
	}
	return false
}

// fill water-fills component c from its links' raw capacities and stores
// every group's rate.
//
//corral:hotpath
func (inc *IncrementalMaxMin) fill(c *component, caps, remaining []float64) {
	work := inc.work[:0]
	for l := c.head; l >= 0; l = inc.linkNext[l] {
		inc.cnt[l] = inc.base[l]
		remaining[l] = caps[l]
		inc.capAt[l] = caps[l]
		work = append(work, l)
	}
	for gi := c.groups; gi >= 0; gi = inc.groups[gi].next {
		inc.groups[gi].frozen = false
	}
	c.rate = fillComponent(work, c.size, remaining, inc.cnt, inc.linkGroups, inc.groups)
	for gi := c.groups; gi >= 0; gi = inc.groups[gi].next {
		if grp := &inc.groups[gi]; !grp.frozen {
			grp.rate = c.rate
		}
	}
	c.dirty = false
	inc.work = work
}

// reset drops every table back to the cold state, keeping their storage.
func (inc *IncrementalMaxMin) reset() {
	for _, id := range inc.live {
		inc.groupOf[id] = -1
	}
	inc.live = inc.live[:0]
	inc.groups = inc.groups[:0]
	inc.freeGroups = inc.freeGroups[:0]
	inc.freeComps = inc.freeComps[:0]
	for ci := range inc.comps {
		c := &inc.comps[ci]
		if c.live {
			for l := c.head; l >= 0; l = inc.linkNext[l] {
				inc.base[l] = 0
				inc.linkGroups[l] = inc.linkGroups[l][:0]
				inc.linkComp[l] = -1
			}
			c.live = false
		}
		inc.freeComps = append(inc.freeComps, int32(ci))
	}
	inc.warm = false
}
