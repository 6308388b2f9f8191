package exec

import (
	"fmt"
	"strings"

	"repro/internal/access"
	"repro/internal/btree"
)

// NodeKind identifies a physical operator.
type NodeKind int

// Physical operators.
const (
	KRowScan NodeKind = iota
	KColScan
	KHashJoin
	KNLIndexJoin
	KHashAgg
	KSort
	KTop
	KFilter
	KProject
)

// String names the operator as in a showplan.
func (k NodeKind) String() string {
	switch k {
	case KRowScan:
		return "Table Scan"
	case KColScan:
		return "Columnstore Scan"
	case KHashJoin:
		return "Hash Join"
	case KNLIndexJoin:
		return "Nested Loops (Index Seek)"
	case KHashAgg:
		return "Hash Aggregate"
	case KSort:
		return "Sort"
	case KTop:
		return "Top"
	case KFilter:
		return "Filter"
	case KProject:
		return "Compute Scalar"
	default:
		return fmt.Sprintf("Op(%d)", int(k))
	}
}

// JoinType selects join semantics.
type JoinType int

// Join types.
const (
	InnerJoin JoinType = iota
	SemiJoin
	AntiJoin
)

// AggKind is an aggregate function.
type AggKind int

// Aggregates.
const (
	AggSum AggKind = iota
	AggCount
	AggMin
	AggMax
	AggAvg // produced as sum; callers divide by the paired count
)

// AggSpec is one aggregate over a column of the child's output.
type AggSpec struct {
	Kind AggKind
	Col  int // column ordinal in child rows; ignored for AggCount
}

// SortKey is one ordering column.
type SortKey struct {
	Col  int
	Desc bool
}

// Pred is a row predicate.
type Pred func(Row) bool

// Node is a physical plan node. The optimizer sets the estimates and the
// Parallel flag; the executor reads them.
type Node struct {
	Kind NodeKind

	// Children: Left is the build/outer side, Right the probe side.
	Left  *Node
	Right *Node

	// Row-store scan.
	Heap access.Heap
	// Columnstore scan.
	CSI *access.CSI
	// Shared scan fields: Proj lists table column ordinals to emit; Pred
	// filters (applied to a full-width table row for scans, or to the
	// child's output row for KFilter); NPred is the predicate count for
	// costing; PredCols lists extra table columns the predicate reads
	// (so columnstore scans decode them).
	Proj     []int
	Pred     Pred
	NPred    int
	PredCols []int

	// Hash join: key ordinals within each child's output rows.
	BuildKeys []int
	ProbeKeys []int
	JoinType  JoinType

	// NL index join: the inner index, the outer-row ordinals forming the
	// probe key, and the inner table columns to emit.
	Index     *access.BTIndex
	OuterKeys []int
	InnerProj []int

	// Aggregate: group-by ordinals and aggregate specs; output rows are
	// groups ++ aggregates.
	Groups []int
	Aggs   []AggSpec

	// Sort / Top.
	Keys  []SortKey
	Limit int

	// Project.
	Exprs []func(Row) int64

	// Optimizer annotations.
	EstRows  float64 // nominal output cardinality estimate
	Weight   int64   // nominal rows represented per actual output row
	RowBytes int64   // nominal bytes per row (for grants/exchanges)
	Parallel bool    // runs with the plan's DOP (vs forced serial)
	Name     string  // display label (table/index name)
}

// Inputs returns the non-nil children.
func (n *Node) Inputs() []*Node {
	var out []*Node
	if n.Left != nil {
		out = append(out, n.Left)
	}
	if n.Right != nil {
		out = append(out, n.Right)
	}
	return out
}

// Render pretty-prints the plan tree in showplan style (Figure 7's plan
// shapes). Parallel operators are marked with the double-arrow ⇉.
func (n *Node) Render() string {
	var b strings.Builder
	n.render(&b, 0)
	return b.String()
}

func (n *Node) render(b *strings.Builder, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	if n.Parallel {
		b.WriteString("⇉ ")
	} else {
		b.WriteString("→ ")
	}
	b.WriteString(n.Kind.String())
	if n.Name != "" {
		fmt.Fprintf(b, " [%s]", n.Name)
	}
	if n.EstRows > 0 {
		fmt.Fprintf(b, " (est %.3g rows)", n.EstRows)
	}
	b.WriteString("\n")
	for _, c := range n.Inputs() {
		c.render(b, depth+1)
	}
}

// Shape returns a compact structural signature of the plan: operator
// kinds in pre-order with parallel markers, e.g.
// "HJ(Scan,NL(Scan,IxSeek))". Tests use it to assert plan changes.
func (n *Node) Shape() string {
	var short string
	switch n.Kind {
	case KRowScan:
		short = "Scan"
	case KColScan:
		short = "CScan"
	case KHashJoin:
		short = "HJ"
	case KNLIndexJoin:
		short = "NL"
	case KHashAgg:
		short = "Agg"
	case KSort:
		short = "Sort"
	case KTop:
		short = "Top"
	case KFilter:
		short = "Filter"
	case KProject:
		short = "Proj"
	}
	if n.Parallel {
		short = "p" + short
	}
	ins := n.Inputs()
	if len(ins) == 0 {
		return short
	}
	parts := make([]string, len(ins))
	for i, c := range ins {
		parts[i] = c.Shape()
	}
	return short + "(" + strings.Join(parts, ",") + ")"
}

// probeKeyOf builds the index probe key from an outer row.
func (n *Node) probeKeyOf(outer Row) btree.Key {
	k := make(btree.Key, len(n.OuterKeys))
	for i, c := range n.OuterKeys {
		k[i] = outer[c]
	}
	return k
}
