package btree

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/sim"
)

// refInsert, refSplitChild and refInsertNonFull are Insert before it had
// an append path: every key searches its way down. They are the
// reference the append path must reproduce node for node.
func refInsert(t *Tree, k Key, v int64) {
	if len(t.root.keys) == maxKeys {
		old := t.root
		t.root = &node{children: []*node{old}}
		refSplitChild(t.root, 0)
	}
	refInsertNonFull(t.root, k, v)
	t.size++
}

func refSplitChild(n *node, i int) {
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

func refInsertNonFull(n *node, k Key, v int64) {
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
		refSplitChild(n, i)
		if Compare(k, n.keys[i]) > 0 {
			i++
		}
	}
	refInsertNonFull(n.children[i], k, v)
}

// sameNodes reports the first node where a and b differ in keys, values
// or leaf-ness, by its path from the root.
func sameNodes(a, b *node, path string) error {
	if a.leaf() != b.leaf() || len(a.children) != len(b.children) {
		return fmt.Errorf("node %s: leaf %v/%v, %d/%d children", path, a.leaf(), b.leaf(), len(a.children), len(b.children))
	}
	if !slices.EqualFunc(a.keys, b.keys, func(x, y Key) bool { return slices.Equal(x, y) }) || !slices.Equal(a.vals, b.vals) {
		return fmt.Errorf("node %s: keys %v vals %v, reference keys %v vals %v", path, a.keys, a.vals, b.keys, b.vals)
	}
	for i := range a.children {
		if err := sameNodes(a.children[i], b.children[i], fmt.Sprintf("%s/%d", path, i)); err != nil {
			return err
		}
	}
	return nil
}

// An index build inserts ascending keys, the run phase mixes appends
// with random keys and duplicates; whatever the mix, the append path
// must leave the tree the searching insert leaves.
func TestAscendingAppendKeepsShape(t *testing.T) {
	var appended, general int
	for seed := int64(1); seed <= 300; seed++ {
		g := sim.NewRNG(seed)
		got, ref := New(), New()
		n := 1 + g.Intn(3000) // up to three levels
		ascending := g.Float64()
		var inserted []Key
		var max Key
		for i := 0; i < n; i++ {
			var k Key
			switch r := g.Float64(); {
			case r < ascending || len(inserted) == 0:
				// Past the greatest key: bump its first component, or
				// extend it (a longer key with the same prefix is greater).
				if max == nil || g.Bool(0.8) {
					k = Key{int64(len(inserted)) * 4}
					if max != nil {
						k[0] = max[0] + 1 + g.Int64n(3)
					}
				} else {
					k = append(slices.Clip(max), g.Int64n(5))
				}
			case r < ascending+(1-ascending)/3:
				k = inserted[g.Intn(len(inserted))] // duplicate, the greatest included
			default:
				k = Key{g.Int64n(int64(len(inserted))*4 + 1)}
				if g.Bool(0.3) {
					k = append(k, g.Int64n(5))
				}
			}
			if max == nil || Compare(k, max) > 0 {
				max = k
				appended++
			} else {
				general++
			}
			inserted = append(inserted, k)
			got.Insert(k, int64(i))
			refInsert(ref, k, int64(i))
		}
		if got.Len() != ref.Len() {
			t.Fatalf("seed %d: Len %d, reference %d", seed, got.Len(), ref.Len())
		}
		if err := sameNodes(got.root, ref.root, "root"); err != nil {
			t.Fatalf("seed %d after %d inserts: %v", seed, n, err)
		}
	}
	if appended == 0 || general == 0 {
		t.Fatalf("%d appends, %d general inserts: the mix must exercise both paths", appended, general)
	}
}
