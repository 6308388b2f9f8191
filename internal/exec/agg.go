package exec

import (
	"encoding/binary"
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

type groupEnt struct {
	key   Row
	state []int64
	part  int // the parallel stage's partition the group's rows hash to
}

// maxInlineGroupCols is the widest group-by the fixed-width array key
// covers; wider keys fall back to the byte-string encoding.
const maxInlineGroupCols = 4

// inlineKey is a fixed-width group key: group column values padded with
// zeros. Comparable, so it indexes a map without allocating per row.
type inlineKey [maxInlineGroupCols]int64

// aggTable is a group hash table keeping entries in insertion order.
// Narrow group-bys use a fixed-width array key and wide ones a byte
// string encoded into buf, so looking up an existing group allocates
// nothing.
type aggTable struct {
	groups []int
	aggs   []AggSpec
	inline map[inlineKey]int32
	wide   map[string]int32
	buf    []byte
	ents   []*groupEnt
}

func newAggTable(groups []int, aggs []AggSpec) *aggTable {
	t := &aggTable{groups: groups, aggs: aggs}
	if len(groups) <= maxInlineGroupCols {
		t.inline = make(map[inlineKey]int32)
	} else {
		t.wide = make(map[string]int32)
	}
	return t
}

// entCols returns the group entry of one columnar row, creating it on
// first sight: group values come from cols[groups[i]][phys].
func (t *aggTable) entCols(cols [][]int64, phys int32) *groupEnt {
	if t.inline != nil {
		var k inlineKey
		for i, c := range t.groups {
			k[i] = cols[c][phys]
		}
		if ix, ok := t.inline[k]; ok {
			return t.ents[ix]
		}
		t.inline[k] = int32(len(t.ents))
	} else {
		t.buf = t.buf[:0]
		for _, c := range t.groups {
			t.buf = binary.LittleEndian.AppendUint64(t.buf, uint64(cols[c][phys]))
		}
		if ix, ok := t.wide[string(t.buf)]; ok {
			return t.ents[ix]
		}
		t.wide[string(t.buf)] = int32(len(t.ents))
	}
	key := make(Row, len(t.groups))
	for i, c := range t.groups {
		key[i] = cols[c][phys]
	}
	g := &groupEnt{key: key, state: newAggState(t.aggs)}
	t.ents = append(t.ents, g)
	return g
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
			known := len(at.ents)
			g := at.entCols(b.Cols, ph)
			if len(at.ents) > known {
				if parts > 1 {
					g.part = int(hashCols(b.Cols, n.Groups, ph) % uint64(parts))
				}
				groups[g.part]++
			}
			rows[g.part]++
			accumulateCols(g.state, n.Aggs, b.Cols, ph, weight)
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

func finalize(key Row, st []int64, aggs []AggSpec) Row {
	out := make(Row, 0, len(key)+len(aggs))
	out = append(out, key...)
	i := 0
	for _, a := range aggs {
		switch a.Kind {
		case AggAvg:
			if st[i+1] > 0 {
				out = append(out, st[i]/st[i+1])
			} else {
				out = append(out, 0)
			}
		default:
			v := st[i]
			if a.Kind == AggMin && v == math.MaxInt64 {
				v = 0
			}
			if a.Kind == AggMax && v == math.MinInt64 {
				v = 0
			}
			out = append(out, v)
		}
		i += aggWidth(a.Kind)
	}
	return out
}

// finalizeGroups emits finalized groups in group-key order (the keys are
// distinct, so the order is total), and the scalar aggregate over an
// empty input as one zero row.
func finalizeGroups(ents []*groupEnt, groups []int, aggs []AggSpec) []Row {
	if len(groups) == 0 && len(ents) == 0 {
		return []Row{finalize(nil, newAggState(aggs), aggs)}
	}
	out := make([]Row, len(ents))
	for i, g := range ents {
		out[i] = finalize(g.key, g.state, aggs)
	}
	ng := len(groups)
	slices.SortFunc(out, func(a, b Row) int { return slices.Compare(a[:ng], b[:ng]) })
	return out
}
