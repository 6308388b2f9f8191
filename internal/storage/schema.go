// Package storage provides the database engine's physical storage layer:
// typed schemas, row-store tables, and the nominal-size bookkeeping that
// lets a scaled-down dataset stand in for the paper's 30–150 GB databases.
//
// Every value is represented as an int64: integers directly, decimals as
// fixed-point hundredths, dates as day numbers, and strings as codes into
// a per-column StrPool. This keeps rows compact and comparisons branch-free
// while remaining fully functional (joins, predicates, aggregation).
//
// Nominal sizing: each table is created with a replication factor K — one
// generated ("actual") row stands for K nominal rows. Page counts, I/O
// volumes, index heights, and cache footprints are computed from nominal
// bytes (schema widths × nominal row counts), so buffer-pool and bandwidth
// pressure follow the paper's data sizes even though the Go heap holds
// only the scaled-down rows.
package storage

import "fmt"

// ColType is a column's logical type.
type ColType int

// Column types.
const (
	TInt     ColType = iota // 64-bit integer
	TDecimal                // fixed-point, stored as hundredths
	TDate                   // day number
	TStr                    // code into the column's StrPool
)

// Column describes one column.
type Column struct {
	Name  string
	Type  ColType
	Width int // nominal on-disk bytes for sizing (e.g. 4, 8, 25)
}

// Schema is an ordered set of columns.
type Schema struct {
	Name string
	Cols []Column

	byName   map[string]int
	rowWidth int64
}

// rowOverhead is the fixed per-row overhead: row header and slot-array
// entry.
const rowOverhead = 9

// NewSchema builds a schema, validating column names are unique.
func NewSchema(name string, cols ...Column) *Schema {
	s := &Schema{Name: name, Cols: cols, byName: make(map[string]int, len(cols)), rowWidth: rowOverhead}
	for i, c := range cols {
		if _, dup := s.byName[c.Name]; dup {
			panic(fmt.Sprintf("storage: duplicate column %q in %q", c.Name, name))
		}
		if c.Width <= 0 {
			panic(fmt.Sprintf("storage: column %q.%q has no width", name, c.Name))
		}
		s.byName[c.Name] = i
		s.rowWidth += int64(c.Width)
	}
	return s
}

// Col returns the index of the named column, panicking if absent — schema
// references are authored in code, so a miss is a programming error.
func (s *Schema) Col(name string) int {
	i, ok := s.byName[name]
	if !ok {
		panic(fmt.Sprintf("storage: no column %q in %q", name, s.Name))
	}
	return i
}

// RowWidth returns the nominal stored row width in bytes, including the
// fixed per-row overhead.
func (s *Schema) RowWidth() int64 { return s.rowWidth }

// NCols returns the number of columns.
func (s *Schema) NCols() int { return len(s.Cols) }
