// Package btree implements an in-memory B-tree over composite int64 keys,
// used for the engine's row-store indexes (clustered and nonclustered).
// Every key in one tree has the same number of components, fixed by its
// first Insert. Duplicate keys are permitted; callers that need uniqueness
// append the row ID as a final key component. Entries are never removed:
// the engine deletes a row by ghosting it in the table.
//
// The tree provides the functional behaviour (point and range lookups in
// key order); the *cost* of probing a paper-scale index is derived from
// Geom, which computes nominal page counts and heights from the schema's
// key widths and the nominal row count.
package btree

import (
	"fmt"
	"math"
	"slices"
)

// Key is a composite key. Comparison is lexicographic.
type Key []int64

// Compare returns -1, 0, or 1 for a < b, a == b, a > b. A shorter key that
// is a prefix of a longer one compares less (so a prefix Seek lands at the
// first row of the prefix group).
func Compare(a, b Key) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] < b[i] {
			return -1
		}
		if a[i] > b[i] {
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}

// minDegree is the CLRS branching parameter t: every node except the root
// holds between t-1 and 2t-1 keys.
const minDegree = 32

const maxKeys = 2*minDegree - 1

// A node stores its keys back to back in one array: every key in a tree
// is w words wide (the tree's width, fixed by its first Insert), and key i
// is keys[i*w : i*w+w]. A search compares contiguous words instead of
// loading a separately allocated key per comparison.
type node struct {
	keys     []int64
	vals     []int64
	children []*node // nil for leaves
}

func (n *node) leaf() bool { return n.children == nil }

// len returns the number of entries in n.
func (n *node) len() int { return len(n.vals) }

// key returns entry i's key, capped so an append cannot reach entry i+1.
func (n *node) key(i, w int) Key { return n.keys[i*w : i*w+w : i*w+w] }

// findGE returns the index of the first key >= k. A point seek into a
// unique single-column index (95 % of htap_mixed's seeks) compares one
// word per key without calling Compare.
func (n *node) findGE(k Key, w int) int {
	if w == 1 && len(k) == 1 {
		keys, x := n.keys, k[0]
		lo, hi := 0, len(keys)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if keys[mid] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	lo, hi := 0, n.len()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if Compare(n.key(mid, w), k) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// findGT returns the index of the first key > k.
func (n *node) findGT(k Key, w int) int {
	lo, hi := 0, n.len()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if Compare(n.key(mid, w), k) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Tree is a B-tree.
type Tree struct {
	root *node
	size int
	w    int // words per key, fixed by the first Insert
	max  Key // a copy of the greatest key inserted (nil while empty)
}

// New creates an empty tree.
func New() *Tree {
	return &Tree{root: &node{}}
}

// Len returns the number of entries.
func (t *Tree) Len() int { return t.size }

// Insert adds (k, v); duplicate keys are kept. The first Insert fixes the
// tree's key width, and a key of any other width panics. The tree keeps a
// copy of k, so the caller may reuse its buffer. A key greater than every
// key in the tree — an index built over ascending row IDs, an insert at
// the end of a clustered key — takes the rightmost descent without a
// search; the tree it leaves is the one the general path would.
func (t *Tree) Insert(k Key, v int64) {
	if t.size == 0 {
		t.w = len(k)
	} else if len(k) != t.w {
		panic(fmt.Sprintf("btree: Insert of a %d-word key into a tree of %d-word keys", len(k), t.w))
	}
	appending := t.size == 0 || Compare(k, t.max) > 0
	if t.root.len() == maxKeys {
		old := t.root
		t.root = &node{children: []*node{old}}
		t.root.splitChild(0, t.w, appending)
	}
	if appending {
		t.root.appendMax(k, v, t.w)
		t.max = append(t.max[:0], k...)
	} else {
		t.root.insertNonFull(k, v, t.w)
	}
	t.size++
}

// splitChild splits the full child i around its median. filling says the
// new right sibling will fill up with appends, so it is allocated at its
// final capacity; otherwise it gets just what it holds.
func (n *node) splitChild(i, w int, filling bool) {
	child := n.children[i]
	mid := minDegree - 1
	right := &node{}
	if filling {
		right.keys = make([]int64, 0, maxKeys*w)
		right.vals = make([]int64, 0, maxKeys)
		if !child.leaf() {
			right.children = make([]*node, 0, maxKeys+1)
		}
	}
	right.keys = append(right.keys, child.keys[(mid+1)*w:]...)
	right.vals = append(right.vals, child.vals[mid+1:]...)
	if !child.leaf() {
		right.children = append(right.children, child.children[mid+1:]...)
	}
	n.keys = slices.Insert(n.keys, i*w, child.key(mid, w)...)
	n.vals = slices.Insert(n.vals, i, child.vals[mid])
	n.children = slices.Insert(n.children, i+1, right)
	child.keys = child.keys[:mid*w]
	child.vals = child.vals[:mid]
	if !child.leaf() {
		child.children = child.children[:mid+1]
	}
}

func (n *node) insertNonFull(k Key, v int64, w int) {
	for !n.leaf() {
		i := n.findGT(k, w)
		if n.children[i].len() == maxKeys {
			n.splitChild(i, w, false)
			if Compare(k, n.key(i, w)) > 0 {
				i++
			}
		}
		n = n.children[i]
	}
	i := n.findGT(k, w)
	n.keys = slices.Insert(n.keys, i*w, k...)
	n.vals = slices.Insert(n.vals, i, v)
}

// appendMax inserts k, greater than every key below n, on the descent
// insertNonFull would take: findGT lands past the last key at every
// level, and k is greater than a split's median too.
func (n *node) appendMax(k Key, v int64, w int) {
	for !n.leaf() {
		i := n.len()
		if n.children[i].len() == maxKeys {
			n.splitChild(i, w, true)
			i++
		}
		n = n.children[i]
	}
	n.keys = append(n.keys, k...)
	n.vals = append(n.vals, v)
}

// Get returns the value of the first entry exactly equal to k.
func (t *Tree) Get(k Key) (int64, bool) {
	it := t.Seek(k)
	if it.Valid() && Compare(it.Key(), k) == 0 {
		return it.Value(), true
	}
	return 0, false
}

// iterFrame is one level of the iterator's descent stack.
type iterFrame struct {
	n   *node
	idx int
}

// maxHeight bounds the iterator's descent stack. The root has at least 2
// children and every other interior node at least minDegree, so a ninth
// level needs more than 2*32^7*31 (2e12) entries — more than fit in memory.
const maxHeight = 8

// Iter walks entries in ascending key order. It is a plain value with the
// descent stack inline, so positioning one allocates nothing.
type Iter struct {
	stack [maxHeight]iterFrame
	depth int
	w     int // the tree's key width
}

func (it *Iter) push(n *node, idx int) {
	it.stack[it.depth] = iterFrame{n, idx}
	it.depth++
}

// pushLeftmost pushes n and the leftmost path below it.
func (it *Iter) pushLeftmost(n *node) {
	for {
		it.push(n, 0)
		if n.leaf() {
			break
		}
		n = n.children[0]
	}
	it.normalize()
}

// Seek returns an iterator positioned at the first entry >= k. k may be a
// prefix of the tree's keys.
func (t *Tree) Seek(k Key) Iter {
	it := Iter{w: t.w}
	n := t.root
	for {
		i := n.findGE(k, t.w)
		it.push(n, i)
		if n.leaf() {
			break
		}
		n = n.children[i]
	}
	it.normalize()
	return it
}

// Min returns an iterator at the smallest entry.
func (t *Tree) Min() Iter {
	it := Iter{w: t.w}
	it.pushLeftmost(t.root)
	return it
}

// normalize pops exhausted frames so that Valid/Key/Value address a real
// entry: the top frame's idx always points at an in-range key.
func (it *Iter) normalize() {
	for it.depth > 0 {
		top := &it.stack[it.depth-1]
		if top.idx < top.n.len() {
			return
		}
		it.depth--
	}
}

// Valid reports whether the iterator addresses an entry.
func (it *Iter) Valid() bool { return it.depth > 0 }

// Key returns the current key, a view into the tree that the caller must
// not modify; only valid iterators may be dereferenced.
func (it *Iter) Key() Key { top := &it.stack[it.depth-1]; return top.n.key(top.idx, it.w) }

// Value returns the current value.
func (it *Iter) Value() int64 { top := &it.stack[it.depth-1]; return top.n.vals[top.idx] }

// Next advances to the next entry in key order. The iterator must be
// valid. Mutating the tree invalidates iterators.
func (it *Iter) Next() {
	top := &it.stack[it.depth-1]
	if top.n.leaf() {
		top.idx++
		it.normalize()
		return
	}
	// Interior: we just consumed key idx; descend into child idx+1's
	// leftmost path.
	top.idx++
	it.pushLeftmost(top.n.children[top.idx])
}

// Geom computes nominal index geometry for costing: how large and how
// tall this index would be at paper scale.
type Geom struct {
	KeyWidth    int64 // nominal key bytes
	RowRefWidth int64 // bytes per leaf row reference (0 for clustered keys)
	NominalRows int64
}

// LeafEntriesPerPage returns nominal leaf fan-out.
func (g Geom) LeafEntriesPerPage() int64 {
	w := g.KeyWidth + g.RowRefWidth + 7 // entry overhead
	n := int64(8096) / w
	if n < 2 {
		n = 2
	}
	return n
}

// LeafPages returns the nominal number of leaf pages.
func (g Geom) LeafPages() int64 {
	per := g.LeafEntriesPerPage()
	p := (g.NominalRows + per - 1) / per
	if p < 1 {
		p = 1
	}
	return p
}

// InternalFanout returns nominal internal-node fan-out.
func (g Geom) InternalFanout() int64 {
	f := int64(8096) / (g.KeyWidth + 8)
	if f < 2 {
		f = 2
	}
	return f
}

// Height returns the number of levels (1 = a single leaf/root page).
func (g Geom) Height() int64 {
	pages := float64(g.LeafPages())
	if pages <= 1 {
		return 1
	}
	h := int64(math.Ceil(math.Log(pages)/math.Log(float64(g.InternalFanout())))) + 1
	if h < 2 {
		h = 2
	}
	return h
}

// Pages returns the total nominal page count including internal levels.
func (g Geom) Pages() int64 {
	leaf := g.LeafPages()
	total := leaf
	f := g.InternalFanout()
	for level := leaf; level > 1; {
		level = (level + f - 1) / f
		total += level
	}
	return total
}

// Bytes returns the nominal index size.
func (g Geom) Bytes() int64 { return g.Pages() * 8192 }
