package exec

import (
	"math"
	"slices"
)

// aggWidth returns the state slots an aggregate needs.
func aggWidth(k AggKind) int {
	if k == AggAvg {
		return 2 // sum, count
	}
	return 1
}

// aggTable is the hash aggregate's group table. A group is an index in
// insertion order; its key, aggregate state and partition live in three
// slabs grown by append, and slots is an open-addressed index over them
// (linear probing, at most half full). A new group allocates only when a
// slab or the index doubles, at any group-by width, and looking up an
// existing group allocates nothing.
type aggTable struct {
	groups []int
	aggs   []AggSpec
	slots  []int32 // group index + 1 per slot; 0 is empty
	shift  uint    // 64 - log2(len(slots))
	keys   []int64 // len(groups) words per group
	states []int64 // len(init) words per group
	parts  []int32 // the parallel stage's partition each group's rows hash to
	init   []int64 // a new group's state
}

// aggSlotsLog is log2 of a new table's slot count.
const aggSlotsLog = 4

func newAggTable(groups []int, aggs []AggSpec) *aggTable {
	return &aggTable{
		groups: groups, aggs: aggs, init: newAggState(aggs),
		slots: make([]int32, 1<<aggSlotsLog), shift: 64 - aggSlotsLog,
	}
}

// count returns the number of groups.
func (t *aggTable) count() int { return len(t.parts) }

// key returns group g's key, one word per group column.
func (t *aggTable) key(g int32) []int64 {
	w := len(t.groups)
	return t.keys[int(g)*w : int(g)*w+w : int(g)*w+w]
}

// state returns group g's aggregate state.
func (t *aggTable) state(g int32) []int64 {
	w := len(t.init)
	return t.states[int(g)*w : int(g)*w+w : int(g)*w+w]
}

// home returns the slot a key hash's probe starts at: the top bits of a
// multiplicative hash.
func (t *aggTable) home(h uint64) int {
	return int((h * 0x9e3779b97f4a7c15) >> t.shift)
}

// group returns the group of one columnar row, creating it (in
// partition 0) on first sight: group values come from
// cols[groups[i]][phys]. isNew reports a creation.
func (t *aggTable) group(cols [][]int64, phys int32) (g int32, isNew bool) {
	mask := len(t.slots) - 1
	i := t.home(hashCols(cols, t.groups, phys))
	for ; t.slots[i] != 0; i = (i + 1) & mask {
		g = t.slots[i] - 1
		if t.keyAt(g, cols, phys) {
			return g, false
		}
	}
	g = int32(t.count())
	t.slots[i] = g + 1
	for _, c := range t.groups {
		t.keys = append(t.keys, cols[c][phys])
	}
	t.states = append(t.states, t.init...)
	t.parts = append(t.parts, 0)
	if 2*t.count() > len(t.slots) {
		t.grow()
	}
	return g, true
}

// keyAt reports whether group g's key is the row's.
func (t *aggTable) keyAt(g int32, cols [][]int64, phys int32) bool {
	for i, v := range t.key(g) {
		if cols[t.groups[i]][phys] != v {
			return false
		}
	}
	return true
}

// grow doubles the index and reinserts every group.
func (t *aggTable) grow() {
	t.slots = make([]int32, 2*len(t.slots))
	t.shift--
	mask := len(t.slots) - 1
	for g := range int32(t.count()) {
		h := uint64(hashSeed)
		for _, v := range t.key(g) {
			h = hashStep(h, v)
		}
		i := t.home(h)
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = g + 1
	}
}

// aggregate is the hash aggregate's host pass: one group table over in,
// filled in input order. Each group is tagged with the partition a
// parts-way parallel stage hashes its rows to (0 when parts <= 1), and
// rows[p] and groups[p] count the rows and groups of partition p — what
// partition p charges. Partitions are cut by group hash, so no group
// spans two of them.
func aggregate(in []*Batch, n *Node, parts int, weight int64) (at *aggTable, rows, groups []int64) {
	at = newAggTable(n.Groups, n.Aggs)
	rows, groups = make([]int64, parts), make([]int64, parts)
	for _, b := range in {
		for i := 0; i < b.Rows(); i++ {
			ph := b.phys(i)
			g, isNew := at.group(b.Cols, ph)
			if isNew {
				if parts > 1 {
					at.parts[g] = int32(hashCols(b.Cols, n.Groups, ph) % uint64(parts))
				}
				groups[at.parts[g]]++
			}
			rows[at.parts[g]]++
			accumulateCols(at.state(g), n.Aggs, b.Cols, ph, weight)
		}
	}
	return at, rows, groups
}

func newAggState(aggs []AggSpec) []int64 {
	w := 0
	for _, a := range aggs {
		w += aggWidth(a.Kind)
	}
	st := make([]int64, w)
	i := 0
	for _, a := range aggs {
		switch a.Kind {
		case AggMin:
			st[i] = math.MaxInt64
		case AggMax:
			st[i] = math.MinInt64
		}
		i += aggWidth(a.Kind)
	}
	return st
}

// accumulateCols folds one columnar row into a group's aggregate state.
func accumulateCols(st []int64, aggs []AggSpec, cols [][]int64, phys int32, weight int64) {
	i := 0
	for _, a := range aggs {
		switch a.Kind {
		case AggSum:
			st[i] += cols[a.Col][phys] * weight
		case AggCount:
			st[i] += weight
		case AggMin:
			if v := cols[a.Col][phys]; v < st[i] {
				st[i] = v
			}
		case AggMax:
			if v := cols[a.Col][phys]; v > st[i] {
				st[i] = v
			}
		case AggAvg:
			st[i] += cols[a.Col][phys] * weight
			st[i+1] += weight
		}
		i += aggWidth(a.Kind)
	}
}

// finalizeAggs writes one group's aggregate results, read from its
// state st, into row i of cols: one column per aggregate. A MIN or MAX
// that saw no row reads 0.
func finalizeAggs(cols [][]int64, i int, aggs []AggSpec, st []int64) {
	s := 0
	for c, a := range aggs {
		v := st[s]
		switch {
		case a.Kind == AggAvg:
			v = 0
			if st[s+1] > 0 {
				v = st[s] / st[s+1]
			}
		case a.Kind == AggMin && v == math.MaxInt64, a.Kind == AggMax && v == math.MinInt64:
			v = 0
		}
		cols[c][i] = v
		s += aggWidth(a.Kind)
	}
}

// live returns the groups of the partitions that ran, in insertion
// order.
func (t *aggTable) live(ran []bool) []int32 {
	out := make([]int32, 0, t.count())
	for g, p := range t.parts {
		if ran[p] {
			out = append(out, int32(g))
		}
	}
	return out
}

// emit writes the given groups, finalized, into compact batches of size
// rows in group-key order (the keys are distinct, so the order is
// total): the group columns, then one column per aggregate. The scalar
// aggregate over an empty input emits one zero row.
func (t *aggTable) emit(groups []int32, size int) []*Batch {
	ng := len(t.groups)
	bb := newBatchBuilder(ng+len(t.aggs), size, max(len(groups), 1))
	if ng == 0 && len(groups) == 0 {
		dst, i := bb.room()
		finalizeAggs(dst.Cols, i, t.aggs, t.init)
		return bb.finish()
	}
	slices.SortFunc(groups, func(a, b int32) int { return slices.Compare(t.key(a), t.key(b)) })
	for _, g := range groups {
		dst, i := bb.room()
		for c, v := range t.key(g) {
			dst.Cols[c][i] = v
		}
		finalizeAggs(dst.Cols[ng:], i, t.aggs, t.state(g))
	}
	return bb.finish()
}
