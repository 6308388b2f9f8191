package btree

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/sim"
)

// refNode and refTree are the tree as it was before its keys were
// flattened: every key is its own slice, and every insert searches its
// way down, as Insert did before it had an append path. They are the
// reference the flat nodes and the append path must reproduce node for
// node, and Seek entry for entry.
type refNode struct {
	keys     []Key
	vals     []int64
	children []*refNode // nil for leaves
}

func (n *refNode) leaf() bool { return n.children == nil }

func (n *refNode) findGE(k Key) int {
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

func (n *refNode) findGT(k Key) int {
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

type refTree struct {
	root *refNode
	size int
}

func newRef() *refTree { return &refTree{root: &refNode{}} }

func (t *refTree) insert(k Key, v int64) {
	if len(t.root.keys) == maxKeys {
		old := t.root
		t.root = &refNode{children: []*refNode{old}}
		t.root.splitChild(0)
	}
	t.root.insertNonFull(k, v)
	t.size++
}

func (n *refNode) splitChild(i int) {
	child := n.children[i]
	mid := minDegree - 1
	right := &refNode{
		keys: append([]Key(nil), child.keys[mid+1:]...),
		vals: append([]int64(nil), child.vals[mid+1:]...),
	}
	if !child.leaf() {
		right.children = append([]*refNode(nil), child.children[mid+1:]...)
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

func (n *refNode) insertNonFull(k Key, v int64) {
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

// entry is one (key, value) pair as an iterator reports it.
type entry struct {
	k Key
	v int64
}

// seek returns up to limit entries from the first >= k, by the reference's
// descent stack: Seek, then Next until exhausted or limit.
func (t *refTree) seek(k Key, limit int) []entry {
	type frame struct {
		n   *refNode
		idx int
	}
	var stack []frame
	for n := t.root; ; {
		i := n.findGE(k)
		stack = append(stack, frame{n, i})
		if n.leaf() {
			break
		}
		n = n.children[i]
	}
	var out []entry
	for {
		for len(stack) > 0 && stack[len(stack)-1].idx >= len(stack[len(stack)-1].n.keys) {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 || len(out) == limit {
			return out
		}
		top := &stack[len(stack)-1]
		out = append(out, entry{top.n.keys[top.idx], top.n.vals[top.idx]})
		top.idx++
		if !top.n.leaf() {
			for n := top.n.children[top.idx]; ; n = n.children[0] {
				stack = append(stack, frame{n, 0})
				if n.leaf() {
					break
				}
			}
		}
	}
}

// seekFlat is seek on the tree under test: Seek, then Next.
func seekFlat(t *Tree, k Key, limit int) []entry {
	var out []entry
	for it := t.Seek(k); it.Valid() && len(out) < limit; it.Next() {
		out = append(out, entry{slices.Clone(it.Key()), it.Value()})
	}
	return out
}

func sameEntries(a, b []entry) bool {
	return slices.EqualFunc(a, b, func(x, y entry) bool { return slices.Equal(x.k, y.k) && x.v == y.v })
}

// sameNodes reports the first node where a and the reference b differ in
// keys, values or leaf-ness, by its path from the root.
func sameNodes(a *node, b *refNode, path string) error {
	if a.leaf() != b.leaf() || len(a.children) != len(b.children) {
		return fmt.Errorf("node %s: leaf %v/%v, %d/%d children", path, a.leaf(), b.leaf(), len(a.children), len(b.children))
	}
	if !slices.Equal(a.keys, slices.Concat(b.keys...)) || !slices.Equal(a.vals, b.vals) {
		return fmt.Errorf("node %s: keys %v vals %v, reference keys %v vals %v", path, a.keys, a.vals, b.keys, b.vals)
	}
	for i := range a.children {
		if err := sameNodes(a.children[i], b.children[i], fmt.Sprintf("%s/%d", path, i)); err != nil {
			return err
		}
	}
	return nil
}

// keyMix draws n keys of w words each. A share ascending of them lie past
// the greatest key so far: its first word bumped and the rest redrawn, or
// only its last word bumped. A third of the rest repeat an earlier key,
// the greatest included; the others are random. appended counts the keys
// past the greatest, the ones Insert's append path takes.
func keyMix(g *sim.RNG, w, n int, ascending float64) (keys []Key, appended int) {
	var max Key
	for i := 0; i < n; i++ {
		k := make(Key, w)
		switch r := g.Float64(); {
		case r < ascending || i == 0:
			if i > 0 && w > 1 && g.Bool(0.2) {
				copy(k, max)
				k[w-1] += 1 + g.Int64n(3)
				break
			}
			if i > 0 {
				k[0] = max[0] + 1 + g.Int64n(3)
			}
			for j := 1; j < w; j++ {
				k[j] = g.Int64n(5)
			}
		case r < ascending+(1-ascending)/3:
			copy(k, keys[g.Intn(len(keys))])
		default:
			k[0] = g.Int64n(int64(len(keys))*4 + 1)
			for j := 1; j < w; j++ {
				k[j] = g.Int64n(5)
			}
		}
		if max == nil || Compare(k, max) > 0 {
			max = k
			appended++
		}
		keys = append(keys, k)
	}
	return keys, appended
}

// buildPair inserts keys into a fresh tree and a fresh reference, with
// value i for key i.
func buildPair(keys []Key) (*Tree, *refTree) {
	got, ref := New(), newRef()
	for i, k := range keys {
		got.Insert(k, int64(i))
		ref.insert(k, int64(i))
	}
	return got, ref
}

// An index build inserts ascending keys, the run phase mixes appends
// with random keys and duplicates; whatever the mix and the key width,
// the append path must leave the tree the searching insert leaves.
func TestAscendingAppendKeepsShape(t *testing.T) {
	var appended, general int
	for seed := int64(1); seed <= 300; seed++ {
		g := sim.NewRNG(seed)
		w := 1 + int(seed%3)
		n := 1 + g.Intn(3000) // up to three levels
		keys, a := keyMix(g, w, n, g.Float64())
		appended += a
		general += n - a
		got, ref := buildPair(keys)
		if got.Len() != ref.size {
			t.Fatalf("seed %d: Len %d, reference %d", seed, got.Len(), ref.size)
		}
		if err := sameNodes(got.root, ref.root, "root"); err != nil {
			t.Fatalf("seed %d, %d-word keys, after %d inserts: %v", seed, w, n, err)
		}
	}
	if appended == 0 || general == 0 {
		t.Fatalf("%d appends, %d general inserts: the mix must exercise both paths", appended, general)
	}
}

// The flat tree against the pointer-key tree it replaced, at every key
// width the engine builds: equal nodes, and equal entries from every Seek
// — with prefixes of each length up to the full key — and the Nexts after
// it, across leaves and interior keys.
func TestMatchesPointerTree(t *testing.T) {
	const seeks, limit = 12, 80 // a leaf holds at most 63 entries
	for w := 1; w <= 3; w++ {
		for seed := int64(1); seed <= 300; seed++ {
			g := sim.NewRNG(seed)
			n := 1 + g.Intn(3000)
			keys, _ := keyMix(g, w, n, g.Float64())
			got, ref := buildPair(keys)
			if err := sameNodes(got.root, ref.root, "root"); err != nil {
				t.Fatalf("w %d seed %d: %v", w, seed, err)
			}
			for s := 0; s < seeks; s++ {
				base := keys[g.Intn(len(keys))]
				if g.Bool(0.3) { // between or past the inserted keys
					base = slices.Clone(base)
					base[g.Intn(w)] += g.Int64n(5) - 2
				}
				for plen := 0; plen <= w; plen++ {
					k := base[:plen]
					if a, b := seekFlat(got, k, limit), ref.seek(k, limit); !sameEntries(a, b) {
						t.Fatalf("w %d seed %d: Seek(%v) gives %v, reference %v", w, seed, k, a, b)
					}
				}
			}
		}
	}
}
