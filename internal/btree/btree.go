// Package btree implements an in-memory B-tree over composite int64 keys,
// used for the engine's row-store indexes (clustered and nonclustered).
// Duplicate keys are permitted; callers that need uniqueness (required for
// exact Delete) append the row ID as a final key component.
//
// The tree provides the functional behaviour (point and range lookups in
// key order); the *cost* of probing a paper-scale index is derived from
// Geom, which computes nominal page counts and heights from the schema's
// key widths and the nominal row count.
package btree

import "math"

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

type node struct {
	keys     []Key
	vals     []int64
	children []*node // nil for leaves
}

func (n *node) leaf() bool { return n.children == nil }

// findGE returns the index of the first key >= k.
func (n *node) findGE(k Key) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if Compare(n.keys[mid], k) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// findGT returns the index of the first key > k.
func (n *node) findGT(k Key) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if Compare(n.keys[mid], k) <= 0 {
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
}

// New creates an empty tree.
func New() *Tree {
	return &Tree{root: &node{}}
}

// Len returns the number of entries.
func (t *Tree) Len() int { return t.size }

// Insert adds (k, v); duplicate keys are kept.
func (t *Tree) Insert(k Key, v int64) {
	if len(t.root.keys) == maxKeys {
		old := t.root
		t.root = &node{children: []*node{old}}
		t.root.splitChild(0)
	}
	t.root.insertNonFull(k, v)
	t.size++
}

func (n *node) splitChild(i int) {
	child := n.children[i]
	mid := minDegree - 1
	right := &node{
		keys: append([]Key(nil), child.keys[mid+1:]...),
		vals: append([]int64(nil), child.vals[mid+1:]...),
	}
	if !child.leaf() {
		right.children = append([]*node(nil), child.children[mid+1:]...)
	}
	upKey, upVal := child.keys[mid], child.vals[mid]
	child.keys = child.keys[:mid]
	child.vals = child.vals[:mid]
	if !child.leaf() {
		child.children = child.children[:mid+1]
	}
	n.keys = append(n.keys, nil)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = upKey
	n.vals = append(n.vals, 0)
	copy(n.vals[i+1:], n.vals[i:])
	n.vals[i] = upVal
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
}

func (n *node) insertNonFull(k Key, v int64) {
	i := n.findGT(k)
	if n.leaf() {
		n.keys = append(n.keys, nil)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = k
		n.vals = append(n.vals, 0)
		copy(n.vals[i+1:], n.vals[i:])
		n.vals[i] = v
		return
	}
	if len(n.children[i].keys) == maxKeys {
		n.splitChild(i)
		if Compare(k, n.keys[i]) > 0 {
			i++
		}
	}
	n.children[i].insertNonFull(k, v)
}

// Get returns the value of the first entry exactly equal to k.
func (t *Tree) Get(k Key) (int64, bool) {
	it := t.Seek(k)
	if it.Valid() && Compare(it.Key(), k) == 0 {
		return it.Value(), true
	}
	return 0, false
}

// Delete removes the entry with key exactly k (the first one, if the
// caller inserted duplicates) and reports whether an entry was removed.
func (t *Tree) Delete(k Key) bool {
	if !t.root.remove(k) {
		return false
	}
	if len(t.root.keys) == 0 && !t.root.leaf() {
		t.root = t.root.children[0]
	}
	t.size--
	return true
}

// remove implements CLRS B-tree deletion: every recursive descent happens
// into a child that is guaranteed to hold at least minDegree keys.
func (n *node) remove(k Key) bool {
	i := n.findGE(k)
	found := i < len(n.keys) && Compare(n.keys[i], k) == 0
	if n.leaf() {
		if !found {
			return false
		}
		n.keys = append(n.keys[:i], n.keys[i+1:]...)
		n.vals = append(n.vals[:i], n.vals[i+1:]...)
		return true
	}
	if found {
		left, right := n.children[i], n.children[i+1]
		switch {
		case len(left.keys) >= minDegree:
			pk, pv := left.max()
			n.keys[i], n.vals[i] = pk, pv
			return left.remove(pk)
		case len(right.keys) >= minDegree:
			sk, sv := right.min()
			n.keys[i], n.vals[i] = sk, sv
			return right.remove(sk)
		default:
			n.mergeChildren(i)
			return n.children[i].remove(k)
		}
	}
	// Not in this node: descend into child i after ensuring it is not
	// minimal.
	if len(n.children[i].keys) < minDegree {
		i = n.fillChild(i)
	}
	return n.children[i].remove(k)
}

// fillChild grows child i to at least minDegree keys by borrowing or
// merging; it returns the (possibly shifted) child index to descend into.
func (n *node) fillChild(i int) int {
	if i > 0 && len(n.children[i-1].keys) >= minDegree {
		// Borrow from left sibling: rotate through parent key i-1.
		c, left := n.children[i], n.children[i-1]
		c.keys = append([]Key{n.keys[i-1]}, c.keys...)
		c.vals = append([]int64{n.vals[i-1]}, c.vals...)
		if !c.leaf() {
			c.children = append([]*node{left.children[len(left.children)-1]}, c.children...)
			left.children = left.children[:len(left.children)-1]
		}
		n.keys[i-1] = left.keys[len(left.keys)-1]
		n.vals[i-1] = left.vals[len(left.vals)-1]
		left.keys = left.keys[:len(left.keys)-1]
		left.vals = left.vals[:len(left.vals)-1]
		return i
	}
	if i < len(n.children)-1 && len(n.children[i+1].keys) >= minDegree {
		c, right := n.children[i], n.children[i+1]
		c.keys = append(c.keys, n.keys[i])
		c.vals = append(c.vals, n.vals[i])
		if !c.leaf() {
			c.children = append(c.children, right.children[0])
			right.children = right.children[1:]
		}
		n.keys[i] = right.keys[0]
		n.vals[i] = right.vals[0]
		right.keys = right.keys[1:]
		right.vals = right.vals[1:]
		return i
	}
	if i == len(n.children)-1 {
		i--
	}
	n.mergeChildren(i)
	return i
}

// mergeChildren merges child i, parent key i, and child i+1 into child i.
func (n *node) mergeChildren(i int) {
	left, right := n.children[i], n.children[i+1]
	left.keys = append(left.keys, n.keys[i])
	left.vals = append(left.vals, n.vals[i])
	left.keys = append(left.keys, right.keys...)
	left.vals = append(left.vals, right.vals...)
	if !left.leaf() {
		left.children = append(left.children, right.children...)
	}
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.vals = append(n.vals[:i], n.vals[i+1:]...)
	n.children = append(n.children[:i+1], n.children[i+2:]...)
}

// max returns the largest entry in the subtree.
func (n *node) max() (Key, int64) {
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	return n.keys[len(n.keys)-1], n.vals[len(n.vals)-1]
}

// min returns the smallest entry in the subtree.
func (n *node) min() (Key, int64) {
	for !n.leaf() {
		n = n.children[0]
	}
	return n.keys[0], n.vals[0]
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

// Seek returns an iterator positioned at the first entry >= k.
func (t *Tree) Seek(k Key) Iter {
	var it Iter
	n := t.root
	for {
		i := n.findGE(k)
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
	var it Iter
	it.pushLeftmost(t.root)
	return it
}

// normalize pops exhausted frames so that Valid/Key/Value address a real
// entry: the top frame's idx always points at an in-range key.
func (it *Iter) normalize() {
	for it.depth > 0 {
		top := &it.stack[it.depth-1]
		if top.idx < len(top.n.keys) {
			return
		}
		it.depth--
	}
}

// Valid reports whether the iterator addresses an entry.
func (it *Iter) Valid() bool { return it.depth > 0 }

// Key returns the current key; only valid iterators may be dereferenced.
func (it *Iter) Key() Key { top := &it.stack[it.depth-1]; return top.n.keys[top.idx] }

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
