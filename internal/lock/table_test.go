package lock

import (
	"math/bits"
	"testing"

	"repro/internal/sim"
)

// tableKeys is the key universe the table tests draw from, in clusters
// that collide: adjacent rows of one object, object locks (Row -1), and
// keys whose home is one of the last two slots at 64, 128 and 256 slots,
// so their probe runs wrap past the end of the array. Together they
// outnumber what 64 slots hold at half load, so the table grows.
var tableKeys = func() [][]Key {
	var rows, objs, wrap []Key
	for r := int64(0); r < 64; r++ {
		rows = append(rows, Key{Obj: 1, Row: r})
	}
	for o := 0; o < 16; o++ {
		objs = append(objs, Key{Obj: o, Row: -1})
	}
	for slots := tableMinSlots; slots <= 4*tableMinSlots; slots *= 2 {
		t := table{shift: uint(64 - bits.TrailingZeros(uint(slots)))}
		found := 0
		for r := int64(0); found < 8; r++ {
			if k := (Key{Obj: 5, Row: r}); t.home(k) >= slots-2 {
				wrap = append(wrap, k)
				found++
			}
		}
	}
	return [][]Key{rows, objs, wrap}
}()

// runTableOps decodes ops two bytes at a time into find-or-insert and
// remove operations on tableKeys, applies each to a table and to a Go map,
// and checks the table after every one: the same keys map to the same
// entries, an absent key's find ends on a nil slot, n counts the non-nil
// slots, every live key is reachable from its home without crossing a nil
// slot, and the load stays at or under half. At the end it removes every
// key, requires every slot to be nil, and returns how many slots the
// table grew to.
func runTableOps(t *testing.T, ops []byte) int {
	tb := newTable()
	model := make(map[Key]*entry)
	check := func(step int) {
		if len(tb.slots) < tableMinSlots || len(tb.slots)&(len(tb.slots)-1) != 0 || 2*tb.n > len(tb.slots) {
			t.Fatalf("step %d: %d slots for %d keys", step, len(tb.slots), tb.n)
		}
		live := 0
		mask := len(tb.slots) - 1
		for i, e := range tb.slots {
			if e == nil {
				continue
			}
			live++
			for j := tb.home(e.key); j != i; j = (j + 1) & mask {
				if tb.slots[j] == nil {
					t.Fatalf("step %d: %v in slot %d, but slot %d of its run from %d is nil", step, e.key, i, j, tb.home(e.key))
				}
			}
		}
		if live != tb.n || live != len(model) {
			t.Fatalf("step %d: n %d, %d non-nil slots, model %d", step, tb.n, live, len(model))
		}
		for _, cluster := range tableKeys {
			for _, k := range cluster {
				i, e := tb.find(k)
				if e != model[k] {
					t.Fatalf("step %d: find(%v) = %p, model %p", step, k, e, model[k])
				}
				if e == nil && tb.slots[i] != nil {
					t.Fatalf("step %d: find(%v) missed and ended on a full slot %d", step, k, i)
				}
			}
		}
	}
	for step := 0; step+1 < len(ops); step += 2 {
		cluster := tableKeys[int(ops[step]>>2)%len(tableKeys)]
		k := cluster[int(ops[step+1])%len(cluster)]
		i, e := tb.find(k)
		if ops[step]&3 != 0 { // find-or-insert, three times in four
			if e == nil {
				e = &entry{key: k}
				tb.claim(i, e)
				model[k] = e
			}
		} else if e != nil {
			tb.remove(i)
			delete(model, k)
		}
		check(step)
	}
	for _, cluster := range tableKeys {
		for _, k := range cluster {
			if i, e := tb.find(k); e != nil {
				tb.remove(i)
				delete(model, k)
			}
		}
	}
	check(len(ops))
	for i, e := range tb.slots {
		if e != nil {
			t.Fatalf("slot %d still points at %v after every key left", i, e.key)
		}
	}
	return len(tb.slots)
}

// TestLockTableMatchesMap runs seeded random operation sequences through
// runTableOps; the longer ones hold enough keys at once that the table
// grows twice.
func TestLockTableMatchesMap(t *testing.T) {
	grown := 0
	for seed := int64(1); seed <= 200; seed++ {
		g := sim.NewRNG(seed)
		ops := make([]byte, 2*(50+g.Int64n(400)))
		for i := range ops {
			ops[i] = byte(g.Int64n(256))
		}
		grown = max(grown, runTableOps(t, ops))
	}
	if grown != 4*tableMinSlots {
		t.Fatalf("largest table %d slots, want %d", grown, 4*tableMinSlots)
	}
}

// FuzzLockTable runs runTableOps on arbitrary operation bytes: find-or-
// insert and remove on adjacent rows, object locks and keys whose probe
// runs wrap past the last slot, checked after every operation against a
// Go map through growth and backward-shift deletion.
func FuzzLockTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0})       // insert, then remove, the same row
	f.Add([]byte{9, 0, 9, 1, 8, 0}) // two wrapping keys, remove the first
	f.Add([]byte{5, 3, 5, 3, 4, 3}) // object lock: insert, find, remove
	fill := make([]byte, 0, 2*130)
	for i := 0; i < 130; i++ { // every cluster in turn: growth to 256 slots
		fill = append(fill, byte(1+4*(i%3)), byte(i))
	}
	f.Add(fill)
	f.Fuzz(func(t *testing.T, ops []byte) { runTableOps(t, ops) })
}
