package exec

import (
	"container/heap"
	"sort"
)

// topHeap is a bounded max-heap of candidate indices under a total
// order: the root is the worst retained candidate, so a better incoming
// element replaces it in O(log limit).
type topHeap struct {
	idx    []int32
	before func(i, j int32) bool
}

func (h *topHeap) Len() int           { return len(h.idx) }
func (h *topHeap) Less(i, j int) bool { return h.before(h.idx[j], h.idx[i]) }
func (h *topHeap) Swap(i, j int)      { h.idx[i], h.idx[j] = h.idx[j], h.idx[i] }
func (h *topHeap) Push(x any)         { h.idx = append(h.idx, x.(int32)) }
func (h *topHeap) Pop() any {
	old := h.idx
	x := old[len(old)-1]
	h.idx = old[:len(old)-1]
	return x
}

// topKIdx returns the indices of the limit smallest of n elements under
// less, ties broken toward the lower index (the stable order), sorted
// ascending. limit >= n degenerates to a full index sort; the bounded
// branch does O(n log limit) comparisons, matching the Top operator's
// charged cost.
func topKIdx(n, limit int, less func(i, j int32) bool) []int32 {
	if limit > n {
		limit = n
	}
	if limit <= 0 {
		return nil
	}
	before := func(i, j int32) bool {
		if less(i, j) {
			return true
		}
		if less(j, i) {
			return false
		}
		return i < j
	}
	var idx []int32
	if limit == n {
		idx = make([]int32, n)
		for i := range idx {
			idx[i] = int32(i)
		}
	} else {
		h := &topHeap{idx: make([]int32, 0, limit), before: before}
		for i := 0; i < limit; i++ {
			h.idx = append(h.idx, int32(i))
		}
		heap.Init(h)
		for i := limit; i < n; i++ {
			if before(int32(i), h.idx[0]) {
				h.idx[0] = int32(i)
				heap.Fix(h, 0)
			}
		}
		idx = h.idx
	}
	sort.Slice(idx, func(a, b int) bool { return before(idx[a], idx[b]) })
	return idx
}
