package exec

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/storage"
)

// TestHashJoinDeadlineSkipsPartitions: when the deadline passes while one
// worker of a parallel hash join waits for its core, the partition it
// never ran emits nothing, as in the oracle, where a partition without a
// table or without a probe pass leaves no rows. The hog takes core 0 at
// moments across the join's first millisecond; at least one of them must
// leave some partitions emitting and others not.
func TestHashJoinDeadlineSkipsPartitions(t *testing.T) {
	const dop = 4
	build, probe := make([]Row, 400), make([]Row, 400)
	for i := range build {
		build[i] = Row{int64(i % 40), int64(i)}
		probe[i] = Row{int64(i * 7 % 40), int64(-i)}
	}
	n := &Node{
		Kind: KHashJoin, Left: &Node{Weight: 1}, Right: &Node{Weight: 1},
		BuildKeys: []int{0}, ProbeKeys: []int{0},
		JoinType: InnerJoin, Weight: 1, Parallel: true,
	}
	run := func(hogAt sim.Duration, join func(p *sim.Proc, env *Env, st *QueryStats) []Row) []Row {
		te := newTestEnv(dop)
		var rows []Row
		var st QueryStats
		te.sm.Spawn("hog", func(p *sim.Proc) {
			p.Sleep(hogAt)
			te.env.M.Exec(p, 0, 0, 5e6) // core 0 busy for 5 ms
		})
		te.sm.Spawn("q", func(p *sim.Proc) {
			te.env.Deadline = p.Now() + sim.Time(sim.Millisecond)
			rows = join(p, te.env, &st)
		})
		te.sm.Run(te.sm.Now() + sim.Time(3600*sim.Second))
		return rows
	}
	partial := 0
	for hogAt := sim.Duration(0); hogAt <= sim.Millisecond; hogAt += 20 * sim.Microsecond {
		got := run(hogAt, func(p *sim.Proc, env *Env, st *QueryStats) []Row {
			return batchesToRows(vecHashJoin(p, env, n, st, rowsToBatches(build, 64), rowsToBatches(probe, 64)))
		})
		want := run(hogAt, func(p *sim.Proc, env *Env, st *QueryStats) []Row {
			return runHashJoin(p, env, n, st, build, probe)
		})
		if len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("hog at %v: %d rows, oracle %d", hogAt, len(got), len(want))
		}
		emitted := map[uint64]bool{}
		for _, r := range got {
			emitted[hashRow(r, n.ProbeKeys)%dop] = true
		}
		if len(emitted) > 0 && len(emitted) < dop {
			partial++
		}
	}
	if partial == 0 {
		t.Fatal("at no moment did the deadline cut the join short in some partitions only")
	}
}

// FuzzHashJoinMatchesOracle decodes a build table and a probe table
// whose key columns take two or three values each, so many rows share a
// hash chain and a partition; a key width of 1-3, compared across
// different column positions on the two sides; an inner, semi or anti
// join; a DOP of 1-8; and an unlimited or a spilling grant. Run must
// return the rows runRowEngine does, in the same order, with the same
// spill counters. The oracle builds one table per hash partition and
// concatenates the partitions' outputs, so the order checked is
// partition-major.
func FuzzHashJoinMatchesOracle(f *testing.F) {
	f.Add([]byte{0, 3, 0, 12, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22})
	f.Add([]byte{4, 7, 1, 5, 255, 254, 7, 7, 7, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	f.Add([]byte{8, 1, 0, 0, 9, 9, 9, 9})
	f.Add([]byte{2, 5, 1, 6, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3})
	f.Add([]byte{7, 2, 0, 3, 1, 1, 2, 2, 4, 4, 8, 8, 16, 16, 32, 32, 64, 64})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		width := 1 + int(data[0]%3)
		joinType := []JoinType{InnerJoin, SemiJoin, AntiJoin}[data[0]/3%3]
		dop := 1 + int(data[1]%8)
		grant := int64(0)
		if data[2]&1 != 0 {
			grant = 256 // all but the smallest build sides spill
		}
		vals := data[4:]
		if len(vals) > 400 {
			vals = vals[:400]
		}
		nbuild := min(int(data[3]), len(vals))
		// Build rows are (k0, k1, k2, id) and probe rows (id, k2, k1, k0),
		// key column c holding bits of the row's byte modulo 2 or 3.
		key := func(b byte, c int) int64 { return int64(b>>(2*c)) % int64(2+c%2) }
		table := func(te *testEnv, id int, name string, vals []byte, row func(i int, b byte) []int64) *storage.Table {
			cols := make([]storage.Column, 4)
			for c := range cols {
				cols[c] = storage.Column{Name: fmt.Sprintf("c%d", c), Type: storage.TInt, Width: 8}
			}
			tab := storage.NewTable(id, storage.NewSchema(name, cols...), 3)
			for i, b := range vals {
				tab.AppendLoad(row(i, b))
			}
			tab.Data.Region = te.env.M.ReserveRegion(tab.NominalDataBytes() + 1)
			te.env.BP.Register(tab.Data)
			return tab
		}
		plan := func(te *testEnv) *Node {
			build := table(te, 1, "build", vals[:nbuild], func(i int, b byte) []int64 {
				return []int64{key(b, 0), key(b, 1), key(b, 2), int64(i)}
			})
			probe := table(te, 2, "probe", vals[nbuild:], func(i int, b byte) []int64 {
				return []int64{int64(-i), key(b, 2), key(b, 1), key(b, 0)}
			})
			return &Node{
				Kind:      KHashJoin,
				Left:      scanNode(build, []int{0, 1, 2, 3}, nil, 0, true),
				Right:     scanNode(probe, []int{0, 1, 2, 3}, nil, 0, true),
				BuildKeys: []int{0, 1, 2}[:width], ProbeKeys: []int{3, 2, 1}[:width],
				JoinType: joinType, Weight: probe.K, Parallel: true,
			}
		}
		run := func(engine engineFn) ([]Row, QueryStats) {
			te := newTestEnv(dop)
			if grant != 0 {
				te.env.Grant = &Grant{Bytes: grant}
			}
			return te.runOn(engine, plan(te))
		}
		got, st := run(Run)
		want, wantSt := run(runRowEngine)
		if len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("%v join, width %d, DOP %d: Run %v, oracle %v", joinType, width, dop, got, want)
		}
		if st.OutRows != wantSt.OutRows || st.Spills != wantSt.Spills || st.SpillBytes != wantSt.SpillBytes {
			t.Fatalf("%v join, width %d, DOP %d: Run stats %+v, oracle %+v", joinType, width, dop, st, wantSt)
		}
	})
}
