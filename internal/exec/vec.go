package exec

// This file defines the column-vector batch representation the
// vectorized engine (vecrun.go) operates on. A Batch holds Width()
// columns of equal physical length plus an optional selection vector
// listing the live rows, so a filter can narrow a batch by attaching a
// selection instead of copying column data. Operators that materialize
// (builders) always emit compact batches (Sel == nil).

// Batch is one fixed-capacity column-vector batch.
type Batch struct {
	Cols [][]int64 // one slice per output column, equal lengths
	Sel  []int32   // live physical rows, in order; nil = all rows live
	n    int       // physical rows (column length, even for zero-width batches)
}

// Width returns the column count.
func (b *Batch) Width() int { return len(b.Cols) }

// Rows returns the live row count.
func (b *Batch) Rows() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.n
}

// phys maps a live row ordinal to its physical row index.
func (b *Batch) phys(i int) int32 {
	if b.Sel != nil {
		return b.Sel[i]
	}
	return int32(i)
}

// batchSize returns the execution batch capacity in rows.
func batchSize(env *Env) int {
	if env.Cost != nil && env.Cost.BatchRows > 0 {
		return int(env.Cost.BatchRows)
	}
	return 1024
}

// batchStartRows is the capacity a batch starts at when its writer cannot
// say how many rows are coming; it doubles in place up to batchSize.
const batchStartRows = 32

// batchRowCount sums live rows across batches.
func batchRowCount(bs []*Batch) int {
	total := 0
	for _, b := range bs {
		total += b.Rows()
	}
	return total
}

// batchWidth returns the column count of a batch list (0 when empty; the
// width only matters once there are rows).
func batchWidth(bs []*Batch) int {
	if len(bs) == 0 {
		return 0
	}
	return bs[0].Width()
}

// batchBuilder accumulates rows into compact fixed-size batches. A batch
// is sealed only at size rows or at finish, wherever its capacity
// started. Its columns are cut from one slab: exactly the rows still
// expected when the writer said how many it would append, otherwise
// batchStartRows doubling up to size in the builder's first batch and
// size in every later one.
type batchBuilder struct {
	width, size int
	expect      int // rows the writer will append; 0 = unknown
	cur         *Batch
	capRows     int // capacity of cur's columns, in rows
	done        []*Batch
	rows        int // total rows appended
}

// newBatchBuilder returns a builder of width-column batches of size rows
// for a writer that will append expect rows (0 when it cannot know). A
// wrong expect costs only regrowth: rows and boundaries are the same.
func newBatchBuilder(width, size, expect int) *batchBuilder {
	if size < 1 {
		size = 1
	}
	return &batchBuilder{width: width, size: size, expect: expect}
}

// reserve claims up to k rows of the current batch, as many as fit
// before size, for the caller to fill in place: it returns the batch,
// the first claimed physical row and the number claimed (≥ 1 for k ≥ 1).
// A full batch is sealed and the next started; a batch too small for
// the claim at least doubles.
func (bb *batchBuilder) reserve(k int) (*Batch, int, int) {
	if bb.cur == nil || bb.cur.n == bb.size {
		bb.seal()
		// Past the rows expected, or with none, a batch starts where the
		// last one ended: batchStartRows first, size once one has filled.
		c := max(batchStartRows, bb.capRows)
		if left := bb.expect - bb.rows; left > 0 {
			c = left
		}
		bb.cur = &Batch{Cols: make([][]int64, bb.width)}
		bb.grow(min(c, bb.size))
	}
	b := bb.cur
	k = min(k, bb.size-b.n)
	if need := b.n + k; need > bb.capRows {
		bb.grow(min(max(2*bb.capRows, need), bb.size))
	}
	i := b.n
	b.n += k
	bb.rows += k
	return b, i, k
}

// grow moves the current batch's rows into a fresh slab of c rows per
// column. Each column is a 3-index slice of the slab, so an append to a
// sealed column reallocates instead of writing into its neighbour.
func (bb *batchBuilder) grow(c int) {
	b := bb.cur
	slab := make([]int64, bb.width*c)
	for i := range b.Cols {
		col := slab[i*c : (i+1)*c : (i+1)*c]
		copy(col, b.Cols[i][:b.n])
		b.Cols[i] = col
	}
	bb.capRows = c
}

// seal closes the in-progress batch, trimming columns to the fill level.
func (bb *batchBuilder) seal() {
	if bb.cur != nil && bb.cur.n > 0 {
		for i := range bb.cur.Cols {
			bb.cur.Cols[i] = bb.cur.Cols[i][:bb.cur.n]
		}
		bb.done = append(bb.done, bb.cur)
	}
	bb.cur = nil
}

// room returns the write target for one new row: the batch and the
// physical index the caller fills every column at.
func (bb *batchBuilder) room() (*Batch, int) {
	b, i, _ := bb.reserve(1)
	return b, i
}

// appendBatchRow copies physical row phys of src.
func (bb *batchBuilder) appendBatchRow(src *Batch, phys int32) {
	dst, i := bb.room()
	for c := range dst.Cols {
		dst.Cols[c][i] = src.Cols[c][phys]
	}
}

// appendSrcRange bulk-copies rows [lo,hi) where builder column c reads
// src[c][r] — the scan fast path that never materializes rows.
func (bb *batchBuilder) appendSrcRange(src [][]int64, lo, hi int) {
	for lo < hi {
		b, i, run := bb.reserve(hi - lo)
		for c := range b.Cols {
			copy(b.Cols[c][i:i+run], src[c][lo:lo+run])
		}
		lo += run
	}
}

// finish seals and returns the accumulated batches (nil when no rows).
func (bb *batchBuilder) finish() []*Batch {
	bb.seal()
	return bb.done
}

// rowsToBatches repacks materialized rows into compact batches; the
// bridge into the batch engine for row-only operators.
func rowsToBatches(rows []Row, size int) []*Batch {
	if len(rows) == 0 {
		return nil
	}
	bb := newBatchBuilder(len(rows[0]), size, len(rows))
	for _, r := range rows {
		dst, i := bb.room()
		for c := range dst.Cols {
			dst.Cols[c][i] = r[c]
		}
	}
	return bb.finish()
}

// batchesToRows materializes batches as rows; the bridge out of the
// batch engine (and the final result conversion). Every row is a 3-index
// slice of one slab, so an append to a row reallocates it rather than
// overwriting the next one.
func batchesToRows(bs []*Batch) []Row {
	total := batchRowCount(bs)
	if total == 0 {
		return nil
	}
	w := len(bs[0].Cols)
	slab := make([]int64, total*w)
	out := make([]Row, 0, total)
	for _, b := range bs {
		for i := 0; i < b.Rows(); i++ {
			ph := b.phys(i)
			lo := len(out) * w
			r := slab[lo : lo+w : lo+w]
			for c := range b.Cols {
				r[c] = b.Cols[c][ph]
			}
			out = append(out, r)
		}
	}
	return out
}

// hashCols hashes key columns at one physical row; must match hashRow,
// which the test-only row engine partitions by.
func hashCols(cols [][]int64, keys []int, phys int32) uint64 {
	h := uint64(hashSeed)
	for _, c := range keys {
		h = hashStep(h, cols[c][phys])
	}
	return h
}

// hashSeed starts a key hash and hashStep folds one key value into it.
const hashSeed = 0xcbf29ce484222325

func hashStep(h uint64, v int64) uint64 {
	h ^= uint64(v)
	h *= 0x100000001b3
	return h ^ h>>29
}

// flattenBatches concatenates per-partition batch lists in partition
// order (the vectorized analogue of flatten).
func flattenBatches(parts [][]*Batch) []*Batch {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]*Batch, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// colset is a single compacted columnar buffer, its columns cut from one
// slab; sort and top compact their input into one to permute it by
// index, and the hash join's build side is one.
type colset struct {
	cols [][]int64
	n    int
}

// concatBatches compacts batches into one colset, dropping selections.
func concatBatches(bs []*Batch) *colset {
	total := batchRowCount(bs)
	width := batchWidth(bs)
	cs := &colset{cols: make([][]int64, width), n: total}
	slab := make([]int64, width*total)
	for c := range cs.cols {
		cs.cols[c] = slab[c*total : (c+1)*total : (c+1)*total]
	}
	pos := 0
	for _, b := range bs {
		if b.Sel == nil {
			for c := range cs.cols {
				copy(cs.cols[c][pos:], b.Cols[c])
			}
			pos += b.n
		} else {
			for _, ph := range b.Sel {
				for c := range cs.cols {
					cs.cols[c][pos] = b.Cols[c][ph]
				}
				pos++
			}
		}
	}
	return cs
}

// gather emits the colset's rows in perm order as compact batches.
func (cs *colset) gather(perm []int32, size int) []*Batch {
	bb := newBatchBuilder(len(cs.cols), size, len(perm))
	for _, ph := range perm {
		dst, i := bb.room()
		for c := range dst.Cols {
			dst.Cols[c][i] = cs.cols[c][ph]
		}
	}
	return bb.finish()
}

// compareKeysAt orders two physical rows of a colset by sort keys:
// negative when a sorts first, positive when b does, 0 on equal keys.
func compareKeysAt(cols [][]int64, keys []SortKey, a, b int32) int {
	for _, k := range keys {
		av, bv := cols[k.Col][a], cols[k.Col][b]
		if av == bv {
			continue
		}
		if (av < bv) != k.Desc {
			return -1
		}
		return 1
	}
	return 0
}

// lessKeysAt reports whether physical row a sorts before row b.
func lessKeysAt(cols [][]int64, keys []SortKey, a, b int32) bool {
	return compareKeysAt(cols, keys, a, b) < 0
}
