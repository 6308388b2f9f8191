package storage

import (
	"fmt"
	"slices"
)

// PageBytes is the database page size (SQL Server uses 8 KB pages).
const PageBytes = 8192

// pageUsable is the payload per page after the 96-byte header.
const pageUsable = PageBytes - 96

// File describes one on-disk allocation unit (a table's data, or an
// index) for the buffer pool: its synthetic address region and its
// nominal page extent.
type File struct {
	ID     int
	Name   string
	Region uint64 // base address in the machine's synthetic address space
	Pages  int64  // nominal page count; owners update this as data grows
}

// PageAddr returns the synthetic memory address of a page, used to give
// buffer-pool pages stable cache identities.
func (f *File) PageAddr(pageNo int64) uint64 {
	return f.Region + uint64(pageNo)*PageBytes
}

// Bytes returns the file's nominal size.
func (f *File) Bytes() int64 { return f.Pages * PageBytes }

// Table is a row-store table: column-major actual storage plus nominal
// geometry. One actual row stands for K nominal rows.
type Table struct {
	*Schema
	ID int
	K  int64

	cols  [][]int64
	pools []*StrPool

	nominalRows int64 // high-water nominal cardinality (drives page count)
	liveNominal int64 // nominal cardinality net of deletes

	Data *File
}

// NewTable creates an empty table with replication factor k (>= 1).
func NewTable(id int, schema *Schema, k int64) *Table {
	if k < 1 {
		k = 1
	}
	t := &Table{
		Schema: schema,
		ID:     id,
		K:      k,
		cols:   make([][]int64, schema.NCols()),
		pools:  make([]*StrPool, schema.NCols()),
		Data:   &File{ID: id, Name: schema.Name + ".data"},
	}
	for i, c := range schema.Cols {
		if c.Type == TStr {
			t.pools[i] = NewStrPool()
		}
	}
	return t
}

// Pool returns the string pool for a string column (nil otherwise).
func (t *Table) Pool(col int) *StrPool { return t.pools[col] }

// Reserve sizes every column for n more AppendLoad rows, so a load loop
// of known length fills its columns without regrowing them.
func (t *Table) Reserve(n int64) {
	for i, c := range t.cols {
		t.cols[i] = slices.Grow(c, int(n))
	}
}

// AppendLoad bulk-loads one actual row (standing for K nominal rows) and
// returns its actual row ID. Used by data generators.
func (t *Table) AppendLoad(row []int64) int64 {
	if len(row) != t.NCols() {
		panic(fmt.Sprintf("storage: %s: row has %d values, want %d", t.Name, len(row), t.NCols()))
	}
	for i, v := range row {
		t.cols[i] = append(t.cols[i], v)
	}
	t.nominalRows += t.K
	t.liveNominal += t.K
	t.refreshPages()
	return int64(len(t.cols[0]) - 1)
}

// ActualRows returns the number of materialized rows.
func (t *Table) ActualRows() int64 {
	if len(t.cols) == 0 || t.cols[0] == nil {
		return 0
	}
	return int64(len(t.cols[0]))
}

// NominalRows returns the nominal (paper-scale) cardinality high-water mark.
func (t *Table) NominalRows() int64 { return t.nominalRows }

// LiveNominalRows returns the nominal cardinality net of deletes.
func (t *Table) LiveNominalRows() int64 { return t.liveNominal }

// RowsPerPage returns how many nominal rows fit a page.
func (t *Table) RowsPerPage() int64 {
	n := int64(pageUsable) / t.RowWidth()
	if n < 1 {
		n = 1
	}
	return n
}

// refreshPages recomputes the data file's nominal page extent.
func (t *Table) refreshPages() {
	t.Data.Pages = (t.nominalRows + t.RowsPerPage() - 1) / t.RowsPerPage()
}

// NominalDataBytes returns the table's nominal data size.
func (t *Table) NominalDataBytes() int64 { return t.Data.Bytes() }

// PageOfNominal returns the data page holding a nominal row.
func (t *Table) PageOfNominal(nid int64) int64 {
	return nid / t.RowsPerPage()
}

// ToActual maps a nominal row ID to its representative actual row.
func (t *Table) ToActual(nid int64) int64 {
	n := t.ActualRows()
	if n == 0 {
		return 0
	}
	a := nid / t.K
	if a >= n {
		a = a % n
	}
	return a
}

// Get returns one value.
func (t *Table) Get(row int64, col int) int64 { return t.cols[col][row] }

// Set updates one value in place.
func (t *Table) Set(row int64, col int, v int64) { t.cols[col][row] = v }

// Row copies an actual row into dst (allocating if nil) and returns it.
func (t *Table) Row(row int64, dst []int64) []int64 {
	if dst == nil {
		dst = make([]int64, t.NCols())
	}
	for i := range t.cols {
		dst[i] = t.cols[i][row]
	}
	return dst
}

// Col returns the backing slice for a column (do not append).
func (t *Table) Col(col int) []int64 { return t.cols[col] }

// InsertNominal inserts one nominal row, materializing an actual row each
// time a K boundary is crossed. It returns the new nominal row ID.
func (t *Table) InsertNominal(row []int64) int64 {
	nid := t.nominalRows
	t.nominalRows++
	t.liveNominal++
	if t.nominalRows%t.K == 0 || t.ActualRows() == 0 {
		for i, v := range row {
			t.cols[i] = append(t.cols[i], v)
		}
	}
	t.refreshPages()
	return nid
}

// InsertNominalReplay inserts one nominal row replaying a recorded
// materialization decision rather than re-deriving it: a replica
// applying a shipped WAL stream uses the primary's Materialized flag
// (and the primary's actual row position, at) so both images place
// actual rows identically even when commit order — the apply order —
// differs from the primary's insertion interleaving. Columns are
// zero-padded when a later position arrives first; the earlier insert
// fills the hole when its commit applies. It returns the new nominal
// row ID.
func (t *Table) InsertNominalReplay(row []int64, materialize bool, at int64) int64 {
	nid := t.nominalRows
	t.nominalRows++
	t.liveNominal++
	if materialize {
		for i, v := range row {
			for int64(len(t.cols[i])) <= at {
				t.cols[i] = append(t.cols[i], 0)
			}
			t.cols[i][at] = v
		}
	}
	t.refreshPages()
	return nid
}

// DeleteNominal removes one nominal row. Space is not reclaimed (the page
// extent is a high-water mark, as with ghost records awaiting cleanup).
func (t *Table) DeleteNominal() {
	if t.liveNominal > 0 {
		t.liveNominal--
	}
}

// UndeleteNominal reverses a DeleteNominal: the ghost row is revived.
// Used by transaction rollback and crash recovery to undo deletes.
func (t *Table) UndeleteNominal() {
	if t.liveNominal < t.nominalRows {
		t.liveNominal++
	}
}
