package cache

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// MissRatio returns the fraction of accesses that missed, or 0 if none.
func (s Stats) MissRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// ResetStats zeroes the counters without disturbing cache contents.
func (c *LLC) ResetStats() { c.stats = Stats{} }

func testLLC(sample int) *LLC {
	return New(Config{SizeBytes: 20 << 20, Ways: 20, SetSample: sample})
}

func TestAllocatedBytesFollowsMask(t *testing.T) {
	c := testLLC(64)
	if got := c.AllocatedBytes(); got != 20<<20 {
		t.Fatalf("full mask allocation = %d", got)
	}
	c.SetWayMask(0x3) // 2 ways = 2 MB
	if got := c.AllocatedBytes(); got != 2<<20 {
		t.Fatalf("2-way allocation = %d", got)
	}
	c.SetWayMask(0) // forbidden; clamps to one way
	if got := c.AllocatedBytes(); got != 1<<20 {
		t.Fatalf("empty mask allocation = %d", got)
	}
}

func TestSmallWorkingSetHitsAfterWarmup(t *testing.T) {
	c := testLLC(16)
	const ws = 4 << 20 // 4 MB working set inside a 20 MB cache
	c.Sequential(0, ws, false)
	st := c.Sequential(0, ws, false)
	if r := st.MissRatio(); r > 0.02 {
		t.Fatalf("second pass miss ratio = %.3f, want ~0", r)
	}
}

func TestLargeWorkingSetThrashes(t *testing.T) {
	c := testLLC(16)
	const ws = 200 << 20 // 10x the cache
	c.Sequential(0, ws, false)
	st := c.Sequential(0, ws, false)
	if r := st.MissRatio(); r < 0.9 {
		t.Fatalf("streaming miss ratio = %.3f, want ~1", r)
	}
}

func TestMissRatioMonotoneInAllocation(t *testing.T) {
	const ws = 16 << 20
	prev := 2.0
	for _, ways := range []int{2, 6, 12, 20} {
		c := testLLC(16)
		c.SetWayMask((1 << uint(ways)) - 1)
		c.Flush()
		// Warm up then measure three passes.
		c.Sequential(0, ws, false)
		c.ResetStats()
		for i := 0; i < 3; i++ {
			c.Sequential(0, ws, false)
		}
		r := c.Stats().MissRatio()
		if r > prev+0.05 {
			t.Fatalf("miss ratio increased with more ways: %d ways -> %.3f (prev %.3f)", ways, r, prev)
		}
		prev = r
	}
	if prev > 0.05 {
		t.Fatalf("full-cache miss ratio for 16MB working set = %.3f, want ~0", prev)
	}
}

func TestHitsAllowedOutsideMask(t *testing.T) {
	c := testLLC(16)
	const ws = 8 << 20
	c.Sequential(0, ws, false) // fill with full mask
	c.SetWayMask(0x1)          // shrink to 1 way
	st := c.Sequential(0, ws, false)
	if r := st.MissRatio(); r > 0.1 {
		t.Fatalf("resident data should still hit outside mask; miss ratio = %.3f", r)
	}
}

func TestMaskRestrictsNewAllocations(t *testing.T) {
	c := testLLC(16)
	c.SetWayMask(0x1) // 1 MB only
	const ws = 8 << 20
	c.Sequential(0, ws, false)
	st := c.Sequential(0, ws, false)
	if r := st.MissRatio(); r < 0.7 {
		t.Fatalf("8MB working set in 1MB allocation: miss ratio = %.3f, want high", r)
	}
}

func TestDirtyEvictionProducesWritebacks(t *testing.T) {
	c := testLLC(16)
	const ws = 200 << 20
	c.Sequential(0, ws, true)        // write the region
	st := c.Sequential(0, ws, false) // stream again, evicting dirty lines
	_ = st
	if c.Stats().Writebacks == 0 {
		t.Fatal("no writebacks after evicting written data")
	}
}

func TestRandomHotSetLocality(t *testing.T) {
	c := testLLC(16)
	g := sim.NewRNG(5)
	// 2 MB hot region accessed randomly inside the full mask: after warmup,
	// almost everything should hit.
	c.Random(0, 2<<20, 1<<16, false, g.Float64)
	st := c.Random(0, 2<<20, 1<<16, false, g.Float64)
	if r := st.MissRatio(); r > 0.1 {
		t.Fatalf("hot random set miss ratio = %.3f", r)
	}
}

func TestRandomVsSequentialConsistentRepresentatives(t *testing.T) {
	c := testLLC(16)
	g := sim.NewRNG(5)
	const ws = 4 << 20
	c.Sequential(0, ws, false) // warm sequentially
	st := c.Random(0, ws, 1<<14, false, g.Float64)
	if r := st.MissRatio(); r > 0.1 {
		t.Fatalf("random reads of sequentially-warmed data missed: %.3f", r)
	}
}

func TestFlushInvalidates(t *testing.T) {
	c := testLLC(16)
	const ws = 4 << 20
	c.Sequential(0, ws, false)
	c.Flush()
	st := c.Sequential(0, ws, false)
	if r := st.MissRatio(); r < 0.9 {
		t.Fatalf("post-flush miss ratio = %.3f, want ~1", r)
	}
}

func TestScaledCountersProperty(t *testing.T) {
	f := func(kb uint16, write bool) bool {
		c := testLLC(16)
		bytes := int64(kb%2048+1) * 1024
		st := c.Sequential(0, bytes, write)
		lines := (bytes + LineBytes - 1) / LineBytes
		return st.Accesses == lines && st.Misses >= 0 && st.Misses <= st.Accesses*2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSupersetMasksPreserveResidency(t *testing.T) {
	// The paper grows allocations as supersets (1, 3, 7, ... bitmasks):
	// growing the mask must never lose already-resident data.
	c := testLLC(16)
	const ws = 1 << 20
	c.SetWayMask(0x1)
	c.Sequential(0, ws, false)
	c.SetWayMask(0x3)
	st := c.Sequential(0, ws, false)
	if r := st.MissRatio(); r > 0.05 {
		t.Fatalf("data lost when growing mask: miss ratio %.3f", r)
	}
}

// panicMsg runs f and returns what it panicked with, printed ("<nil>" if
// it returned).
func panicMsg(f func()) (msg string) {
	defer func() { msg = fmt.Sprint(recover()) }()
	f()
	return
}

func TestNewRejectsUnrepresentableGeometry(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{SizeBytes: 20 << 20, Ways: 0, SetSample: 64}, "Ways"},
		{Config{SizeBytes: 20 << 20, Ways: 65, SetSample: 64}, "Ways"},
		{Config{SizeBytes: 0, Ways: 20, SetSample: 64}, "SizeBytes"},
	} {
		if msg := panicMsg(func() { New(tc.cfg) }); !strings.Contains(msg, tc.want) {
			t.Errorf("New(%+v): panic %q, want one naming %s", tc.cfg, msg, tc.want)
		}
	}
	// Both ends of the way range are representable, full mask included.
	for _, ways := range []int{1, 64} {
		c := New(Config{SizeBytes: 1 << 20, Ways: ways, SetSample: 1})
		if got := c.AllocatedWays(); got != ways {
			t.Errorf("%d-way cache: full mask covers %d ways", ways, got)
		}
	}
}

// setLine returns the byte address of the n-th distinct sampled line that
// maps to set 0.
func setLine(c *LLC, n int) uint64 {
	return uint64(n) * c.simSets * c.ss * LineBytes
}

func TestShrunkMaskEvictsOnlyAllowedWays(t *testing.T) {
	c := testLLC(16)
	const size = 20 << 20
	c.Sequential(0, size, false) // fill every way of every set
	before := append([]uint64(nil), c.tags...)
	c.SetWayMask(0x3)
	c.Sequential(1<<32, 10*size, false)
	for i, tag := range c.tags {
		if way := i % c.cfg.Ways; way >= 2 && tag != before[i] {
			t.Fatalf("set %d way %d replaced under mask 0x3", i/c.cfg.Ways, way)
		}
	}
	// Only the two lines per set that sat in ways 0-1 were lost. Re-read
	// in touches small enough not to be counted as streams.
	var st Stats
	for off := uint64(0); off < size; off += 1 << 20 {
		st.Add(c.Sequential(off, 1<<20, false))
	}
	if want := st.Accesses * 2 / 20; st.Misses != want {
		t.Fatalf("re-read after masked stream: %d misses of %d, want %d", st.Misses, st.Accesses, want)
	}
}

func TestRefillAfterFlushAscendsAllowedWays(t *testing.T) {
	c := testLLC(16)
	c.Sequential(0, 20<<20, false)
	c.SetWayMask(0x2a) // ways 1, 3, 5
	c.Flush()
	for n, way := range []int{1, 3, 5, 1} { // the fourth fill evicts the oldest
		if st := c.Sequential(setLine(c, n), LineBytes, false); st.Misses != 1 {
			t.Fatalf("fill %d: %+v, want a miss", n, st)
		}
		if got, want := c.tags[way], c.sampleIdx(setLine(c, n)/LineBytes)+1; got != want {
			t.Fatalf("fill %d: way %d holds tag %d, want %d (set 0: %v)", n, way, got, want, c.tags[:c.cfg.Ways])
		}
	}
}

func TestReadHitKeepsLineDirty(t *testing.T) {
	c := testLLC(16)
	c.Sequential(setLine(c, 0), LineBytes, true)
	if st := c.Sequential(setLine(c, 0), LineBytes, false); st.Misses != 0 {
		t.Fatalf("read of the written line: %+v, want a hit", st)
	}
	for n := 1; n <= 2*c.cfg.Ways; n++ { // push it out, then cycle the set once more
		c.Sequential(setLine(c, n), LineBytes, false)
	}
	if wb := c.Stats().Writebacks; wb != 1 {
		t.Fatalf("writebacks = %d, want exactly 1", wb)
	}
}

// touchLine reads the n-th line of set 0 and reports whether it missed.
func touchLine(c *LLC, n int) bool {
	return c.Sequential(setLine(c, n), LineBytes, false).Misses == 1
}

// lineTag is the tags entry of the n-th line of set 0.
func lineTag(c *LLC, n int) uint64 {
	return c.sampleIdx(setLine(c, n)/LineBytes) + 1
}

// The way predictor is a guess: a slot left pointing at a way that now
// holds another line must not fake a hit, and a slot another line has
// since taken over must not hide a line that is still resident.
func TestStaleHintNeitherHitsNorHides(t *testing.T) {
	c := testLLC(16)
	// Lines of set 0 are simSets indices apart, so line `alias` is the
	// first that shares line 0's hint slot.
	alias := int((c.hintMask + 1) / c.simSets)
	if alias <= c.cfg.Ways || setLine(c, alias)/LineBytes/c.ss&c.hintMask != 0 {
		t.Fatalf("line %d does not alias line 0 in a %d-slot hint table", alias, c.hintMask+1)
	}
	touchLine(c, 0) // way 0
	for n := 1; n < c.cfg.Ways; n++ {
		touchLine(c, n)
	}
	touchLine(c, alias) // evicts line 0; the shared slot still says way 0
	if c.tags[0] != lineTag(c, alias) {
		t.Fatalf("way 0 holds tag %d, want line %d's", c.tags[0], alias)
	}
	if !touchLine(c, 0) {
		t.Fatal("evicted line hit through its stale hint")
	}
	if c.tags[1] != lineTag(c, 0) { // refilled over line 1, the oldest
		t.Fatalf("way 1 holds tag %d, want line 0's", c.tags[1])
	}
	// The two resident lines now fight over one slot: each access finds the
	// slot naming the other's way and must still hit.
	for i := 0; i < 3; i++ {
		if touchLine(c, alias) || touchLine(c, 0) {
			t.Fatalf("round %d: a resident line missed behind an aliased hint", i)
		}
	}
}

func TestHitOutsideMaskKeepsItsWay(t *testing.T) {
	c := testLLC(16)
	ways := c.cfg.Ways
	for n := 0; n < ways; n++ {
		touchLine(c, n) // line n in way n
	}
	c.SetWayMask(0x3)
	if touchLine(c, 5) {
		t.Fatal("line resident in way 5 missed under mask 0x3")
	}
	if c.tags[5] != lineTag(c, 5) {
		t.Fatalf("way 5 holds tag %d after out-of-mask hits, want line 5's", c.tags[5])
	}
	// Age line 5 to the bottom again: the next full-mask fill must evict
	// way 5, which it finds in the hit-updated meta word.
	c.SetWayMask(^uint64(0))
	for n := 0; n < ways; n++ {
		if n != 5 && touchLine(c, n) {
			t.Fatalf("line %d missed", n)
		}
	}
	touchLine(c, ways)
	if c.tags[5] != lineTag(c, ways) {
		t.Fatalf("fill evicted another way than LRU way 5 (set 0: %v)", c.tags[:ways])
	}
}

// The way field's top value: in a 64-way set the LRU way 63 is read back
// from bits 1-6 of its meta word.
func TestWay63IsEvictable(t *testing.T) {
	c := New(Config{SizeBytes: 1 << 20, Ways: 64, SetSample: 1})
	for n := 0; n < 64; n++ {
		touchLine(c, n)
	}
	for n := 0; n < 63; n++ {
		touchLine(c, n)
	}
	if !touchLine(c, 64) || c.tags[63] != lineTag(c, 64) {
		t.Fatalf("fill did not evict LRU way 63 (set 0: %v)", c.tags[:64])
	}
}

func TestStampHeadroomIsChecked(t *testing.T) {
	const limit = 1<<(64-stampShift) - maxSimNonStreaming
	// The last stamps a touch may start from still order a set.
	c := testLLC(16)
	ways := c.cfg.Ways
	c.stamp = limit - uint64(ways) - 1
	for n := 0; n <= ways; n++ {
		touchLine(c, n)
	}
	if c.tags[0] != lineTag(c, ways) {
		t.Errorf("near the stamp limit the fill did not evict LRU way 0 (set 0: %v)", c.tags[:ways])
	}
	// The counter is at the limit now, and every bulk touch refuses.
	pos := sim.NewRNG(1).Float64
	for name, touch := range map[string]func(){
		"Sequential": func() { c.Sequential(0, LineBytes, false) },
		"Random":     func() { c.Random(0, 1<<20, 1, false, pos) },
	} {
		if msg := panicMsg(touch); !strings.Contains(msg, "LLC.stamp") {
			t.Errorf("%s at stamp %d: panic %q, want one naming LLC.stamp", name, c.stamp, msg)
		}
	}
}

func TestTouchesDoNotAllocate(t *testing.T) {
	c := New(PaperLLC())
	pos := sim.NewRNG(1).Float64
	for name, touch := range map[string]func(){
		"Sequential": func() { c.Sequential(4096, 8<<20, true) },
		"Random":     func() { c.Random(4096, 14<<20, 1<<16, false, pos) },
	} {
		if n := testing.AllocsPerRun(10, touch); n != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, n)
		}
	}
}

// llcModel is the surface TestMatchesReference drives on both
// implementations.
type llcModel interface {
	Sequential(base uint64, bytes int64, write bool) Stats
	Random(base uint64, regionBytes, count int64, write bool, posFn func() float64) Stats
	SetWayMask(mask uint64)
	AllocatedBytes() int64
	AllocatedWays() int
	Flush()
	ResetStats()
	Stats() Stats
}

// TestMatchesReference is the differential oracle for the flat layout, its
// way predictor and its way-tagged stamps: any sequence of touches, mask
// changes, flushes and counter resets must return, call for call, what the
// nested-slice implementation returns.
func TestMatchesReference(t *testing.T) {
	geometries := []Config{
		PaperLLC(),
		{SizeBytes: 20 << 20, Ways: 20, SetSample: 1},
		{SizeBytes: 20 << 20, Ways: 20, SetSample: 16},
		{SizeBytes: 12 << 20, Ways: 12, SetSample: 3}, // 5461 sets: the division paths
		{SizeBytes: 1 << 20, Ways: 1, SetSample: 4},   // single-way sets: the victim is the only word
		{SizeBytes: 7 << 20, Ways: 7, SetSample: 16},  // odd way count: the min's tail
		{SizeBytes: 4 << 20, Ways: 64, SetSample: 8},  // the way field's top value, 63
		// 1024 lines behind a 4096-slot way predictor: touches span up to
		// 8 MB, 32x the table, so every slot is shared by lines of many sets.
		{SizeBytes: 64 << 10, Ways: 4, SetSample: 1},
	}
	for _, cfg := range geometries {
		cfg := cfg
		name := fmt.Sprintf("%dMB_%dway_sample%d", cfg.SizeBytes>>20, cfg.Ways, cfg.SetSample)
		if cfg.SizeBytes < 1<<20 {
			name = fmt.Sprintf("%dKB_%dway_sample%d", cfg.SizeBytes>>10, cfg.Ways, cfg.SetSample)
		}
		t.Run(name, func(t *testing.T) {
			f := func(seed int64) bool { return matchesReference(t, cfg, seed) }
			// 12 seeds by default; -quickchecks N scales it (CI runs 1000).
			if err := quick.Check(f, &quick.Config{MaxCountScale: 0.12}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func matchesReference(t *testing.T, cfg Config, seed int64) bool {
	g := sim.NewRNG(seed)
	// Random draws positions from its caller: give each side its own
	// generator on one seed, so both see the same stream.
	posSeed := g.Int63()
	models := [2]llcModel{New(cfg), newRefLLC(cfg)}
	pos := [2]func() float64{sim.NewRNG(posSeed).Float64, sim.NewRNG(posSeed).Float64}

	// Sizes are log-uniform from below one sampled line to 10x the cache
	// (8 MB for a cache smaller than that, so its way predictor aliases);
	// bases revisit four regions so touches find each other's lines.
	size := func() int64 {
		top := max(10*cfg.SizeBytes, 8<<20)
		return 1 + g.Int64n(top>>uint(g.Intn(24)))
	}
	base := func() uint64 {
		b := uint64(g.Intn(4)) << 32
		if g.Bool(0.5) {
			b += uint64(g.Int64n(cfg.SizeBytes))
		}
		return b
	}
	mask := func() uint64 {
		switch g.Intn(5) {
		case 0:
			return 0
		case 1:
			return 1 << uint(g.Intn(cfg.Ways))
		case 2:
			return maskOf(models[0]) & g.Uint64() // superset -> subset
		case 3:
			return ^uint64(0)
		}
		return g.Uint64() // non-contiguous, bits beyond the way count included
	}

	for step := 0; step < 60; step++ {
		var op string
		var got [2]Stats
		switch k := g.Intn(10); {
		case k < 3:
			b, n, w := base(), size(), g.Bool(0.3)
			op = fmt.Sprintf("Sequential(%d, %d, %v)", b, n, w)
			for i, m := range models {
				got[i] = m.Sequential(b, n, w)
			}
		case k < 7:
			b, region, n, w := base(), size(), 1+size()/64, g.Bool(0.3)
			op = fmt.Sprintf("Random(%d, %d, %d, %v)", b, region, n, w)
			for i, m := range models {
				got[i] = m.Random(b, region, n, w, pos[i])
			}
		case k < 9:
			mk := mask()
			op = fmt.Sprintf("SetWayMask(%#x)", mk)
			for _, m := range models {
				m.SetWayMask(mk)
			}
		default:
			op = "Flush"
			if g.Bool(0.5) {
				op = "ResetStats"
			}
			for _, m := range models {
				if op == "Flush" {
					m.Flush()
				} else {
					m.ResetStats()
				}
			}
		}
		for i, m := range models {
			got[i].Add(m.Stats()) // returned and cumulative counters both
		}
		if got[0] != got[1] ||
			maskOf(models[0]) != maskOf(models[1]) ||
			models[0].AllocatedBytes() != models[1].AllocatedBytes() ||
			models[0].AllocatedWays() != models[1].AllocatedWays() {
			t.Errorf("seed %d step %d %s: LLC %+v mask %#x, refLLC %+v mask %#x",
				seed, step, op, got[0], maskOf(models[0]), got[1], maskOf(models[1]))
			return false
		}
	}
	return true
}

// TestMissesMonotoneInContiguousWays is the first model law (ROADMAP item
// 2): LRU within a set has the stack-inclusion property, so from a cold
// cache one trace misses under a k-way contiguous mask at least as often
// as under a (k+1)-way one — touch by touch, hence in the scaled totals
// too. It is exact only while both runs simulate the same accesses, so
// every touch stays under maxSimPerTouch sampled lines: past it the
// streaming cap, which compares the touch to the allocation, would sample
// the two masks at different rates.
func TestMissesMonotoneInContiguousWays(t *testing.T) {
	const ways, maxTouch = 8, maxSimPerTouch * LineBytes / 2
	for _, impl := range []struct {
		name string
		new  func(Config) llcModel
	}{
		{"LLC", func(cfg Config) llcModel { return New(cfg) }},
		{"refLLC", func(cfg Config) llcModel { return newRefLLC(cfg) }},
	} {
		for sample := 1; sample <= 3; sample++ {
			cfg := Config{SizeBytes: 256 << 10, Ways: ways, SetSample: sample}
			t.Run(fmt.Sprintf("%s_sample%d", impl.name, sample), func(t *testing.T) {
				f := func(seed int64) bool {
					var prev int64
					for k := ways; k >= 1; k-- {
						m := impl.new(cfg)
						m.SetWayMask(1<<uint(k) - 1)
						g := sim.NewRNG(seed)
						for step := 0; step < 40; step++ {
							base := uint64(g.Intn(3))<<32 + uint64(g.Int64n(cfg.SizeBytes))
							size := 1 + g.Int64n(maxTouch>>uint(g.Intn(12)))
							if g.Bool(0.5) {
								m.Sequential(base, size, g.Bool(0.3))
							} else {
								m.Random(base, size, 1+size/16, g.Bool(0.3), g.Float64)
							}
						}
						misses := m.Stats().Misses
						if misses < prev {
							t.Errorf("seed %d: %d misses in %d ways, %d in %d", seed, misses, k, prev, k+1)
							return false
						}
						prev = misses
					}
					return prev > 0
				}
				// 12 seeds by default, as TestMatchesReference.
				if err := quick.Check(f, &quick.Config{MaxCountScale: 0.12}); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// maskOf reads a model's normalised way mask.
func maskOf(m llcModel) uint64 {
	if c, ok := m.(*LLC); ok {
		return c.mask
	}
	return m.(*refLLC).mask
}

// refLLC is the nested-slice LLC this package shipped before the flat
// tag/stamp tables, kept verbatim (names aside) as the oracle for
// TestMatchesReference: one slice per set for each of tags, valid, dirty
// and age, the set index divided out of the line number on every access.
type refLLC struct {
	cfg     Config
	simSets int
	mask    uint64 // CAT way mask: bit i set => way i may be allocated into

	tags  [][]uint64
	valid [][]bool
	dirty [][]bool
	// age is a per-set monotonically increasing stamp; larger = more recent.
	age   [][]uint64
	stamp uint64

	stats Stats
}

// newRefLLC creates a refLLC with all ways allocated (full mask).
func newRefLLC(cfg Config) *refLLC {
	if cfg.SetSample < 1 {
		cfg.SetSample = 1
	}
	sets := int(cfg.SizeBytes / int64(LineBytes*cfg.Ways))
	if sets < 1 {
		sets = 1
	}
	simSets := sets / cfg.SetSample
	if simSets < 1 {
		simSets = 1
	}
	c := &refLLC{
		cfg:     cfg,
		simSets: simSets,
		mask:    (uint64(1) << uint(cfg.Ways)) - 1,
	}
	c.tags = make([][]uint64, simSets)
	c.valid = make([][]bool, simSets)
	c.dirty = make([][]bool, simSets)
	c.age = make([][]uint64, simSets)
	for i := range c.tags {
		c.tags[i] = make([]uint64, cfg.Ways)
		c.valid[i] = make([]bool, cfg.Ways)
		c.dirty[i] = make([]bool, cfg.Ways)
		c.age[i] = make([]uint64, cfg.Ways)
	}
	return c
}

// SetWayMask installs a CAT allocation mask. Bits beyond the way count are
// ignored; an empty mask is treated as the lowest single way (hardware
// forbids an empty COS mask).
func (c *refLLC) SetWayMask(mask uint64) {
	mask &= (uint64(1) << uint(c.cfg.Ways)) - 1
	if mask == 0 {
		mask = 1
	}
	c.mask = mask
}

// WayBytes returns the capacity of a single way.
func (c *refLLC) WayBytes() int64 { return c.cfg.SizeBytes / int64(c.cfg.Ways) }

// AllocatedBytes returns the capacity covered by the current mask.
func (c *refLLC) AllocatedBytes() int64 {
	return int64(c.AllocatedWays()) * c.WayBytes()
}

// AllocatedWays returns the way count in the current mask — the COS
// (class-of-service) width, used to label per-COS telemetry series.
func (c *refLLC) AllocatedWays() int {
	n := 0
	for m := c.mask; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// Flush invalidates the entire cache (the paper reboots between the
// largest and smallest allocation to shed out-of-mask residue).
func (c *refLLC) Flush() {
	for i := range c.valid {
		for j := range c.valid[i] {
			c.valid[i][j] = false
			c.dirty[i][j] = false
		}
	}
}

// Stats returns the scaled counters accumulated so far.
func (c *refLLC) Stats() Stats { return c.stats }

// ResetStats zeroes the counters without disturbing cache contents.
func (c *refLLC) ResetStats() { c.stats = Stats{} }

// accessLine simulates one sampled line access and returns (miss, writeback).
// Sampled lines are multiples of SetSample; dividing by the sampling factor
// before taking the set index makes consecutive sampled lines sweep the
// simulated sets round-robin, mirroring the balanced set mapping of real
// hardware for sequential data.
func (c *refLLC) accessLine(line uint64, write bool) (bool, bool) {
	s := int((line / uint64(c.cfg.SetSample)) % uint64(c.simSets))
	tag := line
	c.stamp++
	// Lookup searches all ways: CAT does not restrict hits.
	for w := 0; w < c.cfg.Ways; w++ {
		if c.valid[s][w] && c.tags[s][w] == tag {
			c.age[s][w] = c.stamp
			if write {
				c.dirty[s][w] = true
			}
			return false, false
		}
	}
	// Miss: fill into an allowed way, evicting LRU among allowed ways.
	victim, oldest := -1, ^uint64(0)
	for w := 0; w < c.cfg.Ways; w++ {
		if c.mask&(1<<uint(w)) == 0 {
			continue
		}
		if !c.valid[s][w] {
			victim = w
			break
		}
		if c.age[s][w] < oldest {
			oldest = c.age[s][w]
			victim = w
		}
	}
	wb := false
	if victim >= 0 {
		wb = c.valid[s][victim] && c.dirty[s][victim]
		c.tags[s][victim] = tag
		c.valid[s][victim] = true
		c.dirty[s][victim] = write
		c.age[s][victim] = c.stamp
	}
	return true, wb
}

// record folds simulated results back into scaled stats.
func (c *refLLC) record(total, simulated, misses, wbs int64) Stats {
	if simulated == 0 {
		return Stats{Accesses: total}
	}
	scale := float64(total) / float64(simulated)
	st := Stats{
		Accesses:   total,
		Misses:     int64(float64(misses)*scale + 0.5),
		Writebacks: int64(float64(wbs)*scale + 0.5),
	}
	c.stats.Add(st)
	return st
}

// Sequential simulates a sequential touch of length bytes starting at byte
// address base and returns scaled counters. Sampled lines are those whose
// global line number is a multiple of SetSample, so repeated scans of the
// same region observe their own reuse.
func (c *refLLC) Sequential(base uint64, bytes int64, write bool) Stats {
	if bytes <= 0 {
		return Stats{}
	}
	lines := (bytes + LineBytes - 1) / LineBytes
	start := base / LineBytes
	ss := uint64(c.cfg.SetSample)
	first := (start + ss - 1) / ss * ss // first sampled line >= start
	sampledAvail := int64(0)
	if first < start+uint64(lines) {
		sampledAvail = int64((start + uint64(lines) - first + ss - 1) / ss)
	}
	if sampledAvail == 0 {
		// Touch too small to include a sampled line; probe the nearest
		// sampled representative so tiny hot structures still exercise
		// the model.
		m, w := c.accessLine(start/ss*ss, write)
		var misses, wbs int64
		if m {
			misses++
		}
		if w {
			wbs++
		}
		return c.record(lines, 1, misses, wbs)
	}
	streaming := bytes > 2*c.AllocatedBytes()
	limit := int64(maxSimNonStreaming)
	if streaming {
		limit = maxSimPerTouch
	}
	step := ss
	if sampledAvail > limit {
		step = ss * uint64((sampledAvail+limit-1)/limit)
	}
	var misses, wbs, simulated int64
	for line := first; line < start+uint64(lines); line += step {
		m, w := c.accessLine(line, write)
		simulated++
		if m {
			misses++
		}
		if w {
			wbs++
		}
	}
	if step > ss && streaming {
		// Capped streaming touch: the walk above ages the cache, but its
		// sub-rate sampling would overstate reuse on revisits. A region
		// far larger than the allocation cannot be retained, so count the
		// stream as missing throughout. A streamed write dirties every
		// line and each is eventually evicted, so it writes back in full;
		// a streamed read writes back whatever dirty data it displaces.
		swbs := refScaleBy(wbs, lines, simulated)
		if write {
			swbs = lines
		}
		return c.record2(lines, lines, swbs)
	}
	return c.record(lines, simulated, misses, wbs)
}

func refScaleBy(n, total, simulated int64) int64 {
	if simulated == 0 {
		return 0
	}
	return int64(float64(n)*float64(total)/float64(simulated) + 0.5)
}

// record2 records pre-scaled stats.
func (c *refLLC) record2(accesses, misses, wbs int64) Stats {
	st := Stats{Accesses: accesses, Misses: misses, Writebacks: wbs}
	c.stats.Add(st)
	return st
}

// Random simulates count single-line accesses over a region of regionBytes
// starting at base; positions come from posFn, which must return values in
// [0, 1) (uniform or skewed — the caller owns the distribution). Sampling
// accepts draws that land on sampled lines, so hot lines keep their
// temporal locality.
func (c *refLLC) Random(base uint64, regionBytes int64, count int64, write bool, posFn func() float64) Stats {
	if count <= 0 || regionBytes <= 0 {
		return Stats{}
	}
	regionLines := regionBytes / LineBytes
	if regionLines < 1 {
		regionLines = 1
	}
	ss := uint64(c.cfg.SetSample)
	want := count / int64(ss)
	if want < 1 {
		want = 1
	}
	// Random touches use a tighter cap than sequential ones: random
	// draws have no deterministic-revisit hazard, so sub-rate sampling
	// stays statistically sound, and bulk random touches (hash builds
	// and probes) are the hottest call site in whole-workload runs.
	if want > maxSimRandomTouch {
		want = maxSimRandomTouch
	}
	// Each draw is quantized to its sampling representative (the nearest
	// lower line ≡ 0 mod SetSample), the same representatives Sequential
	// and Strided touch, so hot data keeps consistent identity across
	// access patterns. One simulated access stands for SetSample real ones.
	var misses, wbs int64
	start := base / LineBytes
	for i := int64(0); i < want; i++ {
		off := uint64(float64(regionLines) * posFn())
		if off >= uint64(regionLines) {
			off = uint64(regionLines) - 1
		}
		line := (start + off) / ss * ss
		m, w := c.accessLine(line, write)
		if m {
			misses++
		}
		if w {
			wbs++
		}
	}
	return c.record(count, want, misses, wbs)
}
