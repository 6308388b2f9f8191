// Package cache implements a sampled set-associative last-level cache model
// with Intel CAT-style way-granular partitioning.
//
// The cache is simulated structurally: tags, per-set LRU state, and dirty
// bits, so miss-rate-versus-size knees emerge from the workload's actual
// reuse behaviour rather than from a fitted curve. To keep the model fast
// enough to sit under a whole-database simulation it is *sampled*, in the
// spirit of SHARDS: only 1 in SetSample cache lines is simulated (lines
// whose global line number is ≡ 0 mod SetSample), against a cache scaled
// down by the same factor, and all counters are scaled back up. A given
// line is either always sampled or never sampled, so temporal reuse across
// scans, probes, and operators is detected faithfully.
//
// CAT semantics follow the paper's description of the hardware: the way
// mask restricts *allocation and eviction* only — lookups search all ways,
// so data resident outside the current mask still hits.
package cache

import (
	"fmt"
	"math/bits"
)

// LineBytes is the cache line size.
const LineBytes = 64

// Config describes one socket's LLC.
type Config struct {
	SizeBytes int64 // total capacity, e.g. 20 MiB
	Ways      int   // associativity, one allocation unit ("way") each
	SetSample int   // simulate 1 in SetSample lines (>= 1)
}

// PaperLLC returns the per-socket LLC of the paper's Xeon E5-2620 v4:
// 20 MB, 20 ways (1 MB per way, matching CAT's 20-bit capacity bitmask).
func PaperLLC() Config {
	return Config{SizeBytes: 20 << 20, Ways: 20, SetSample: 64}
}

// Stats holds scaled access counters.
type Stats struct {
	Accesses   int64
	Misses     int64
	Writebacks int64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Accesses += o.Accesses
	s.Misses += o.Misses
	s.Writebacks += o.Writebacks
}

// LLC is one socket's simulated last-level cache.
//
// Storage is two flat tables of simSets × Ways words, a set's ways
// adjacent. Both encodings reserve 0 for an invalid way, so a zeroed
// table is an empty cache:
//
//	tags[i] = sampled-line index + 1
//	meta[i] = stamp<<7 | way<<1 | dirty
//
// stamp is one counter for the whole cache, bumped on every access, so
// the live stamps of a set are distinct and a larger one is more recent;
// way is the word's own position in its set (New's Ways <= 64 is what
// fits it in bits 1-6, checkStamp what keeps stamp<<7 from wrapping).
// Replacement is therefore a plain min over the allowed ways' meta words,
// with no index carried beside it: distinct stamps order live words
// whatever their low bits, so the minimum word is the least recently used
// way and names it in bits 1-6 and its write-back in bit 0. An invalid
// way's 0 is below every live word; a minimum of 0 (cold fill only) is
// resolved by a first-zero scan — the first invalid allowed way in way
// order.
//
// hint is a way predictor for the hit path: hint[idx&hintMask] is the way
// sampled index idx was last found or filled in. It is only a guess —
// access compares that way's full tag before believing it and otherwise
// searches every way — so a stale or aliased entry costs one compare and
// can neither fake a hit nor hide a resident line, and nothing that
// changes contents or mask (Flush, SetWayMask) has to maintain it.
type LLC struct {
	cfg Config

	// Index arithmetic, fixed by the geometry: line → sampled index is a
	// shift when SetSample is a power of two (sampleShift >= 0), sampled
	// index → set is a mask when simSets is one (setsPow2).
	ss          uint64
	sampleShift int
	simSets     uint64
	setsPow2    bool

	// CAT state, derived by SetWayMask.
	mask       uint64  // bit i set => way i may be allocated into
	allowed    []uint8 // the mask's ways in way order; nil when every way is allowed
	allocBytes int64   // capacity the mask covers

	tags     []uint64
	meta     []uint64
	stamp    uint64
	hint     []uint8
	hintMask uint64

	stats Stats
}

// New creates an LLC with all ways allocated (full mask). It panics on a
// geometry the model cannot represent: a way mask is one 64-bit word.
func New(cfg Config) *LLC {
	if cfg.Ways < 1 || cfg.Ways > 64 {
		panic(fmt.Sprintf("cache: Config.Ways = %d, want 1..64", cfg.Ways))
	}
	if cfg.SizeBytes <= 0 {
		panic(fmt.Sprintf("cache: Config.SizeBytes = %d, want > 0", cfg.SizeBytes))
	}
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
	c := &LLC{
		cfg:         cfg,
		ss:          uint64(cfg.SetSample),
		sampleShift: -1,
		simSets:     uint64(simSets),
		setsPow2:    simSets&(simSets-1) == 0,
		tags:        make([]uint64, simSets*cfg.Ways),
		meta:        make([]uint64, simSets*cfg.Ways),
	}
	// Four slots per cache line, rounded up to a power of two: resident
	// lines rarely share a slot.
	hintLen := uint64(1) << uint(bits.Len64(uint64(4*simSets*cfg.Ways-1)))
	c.hint = make([]uint8, hintLen)
	c.hintMask = hintLen - 1
	if c.ss&(c.ss-1) == 0 {
		c.sampleShift = bits.TrailingZeros64(c.ss)
	}
	c.SetWayMask(^uint64(0))
	return c
}

// SetWayMask installs a CAT allocation mask. Bits beyond the way count are
// ignored; an empty mask is treated as the lowest single way (hardware
// forbids an empty COS mask).
func (c *LLC) SetWayMask(mask uint64) {
	full := ^uint64(0) >> uint(64-c.cfg.Ways)
	mask &= full
	if mask == 0 {
		mask = 1
	}
	c.mask = mask
	c.allocBytes = int64(c.AllocatedWays()) * c.WayBytes()
	c.allowed = nil
	if mask != full {
		for m := mask; m != 0; m &= m - 1 {
			c.allowed = append(c.allowed, uint8(bits.TrailingZeros64(m)))
		}
	}
}

// WayBytes returns the capacity of a single way.
func (c *LLC) WayBytes() int64 { return c.cfg.SizeBytes / int64(c.cfg.Ways) }

// AllocatedBytes returns the capacity covered by the current mask.
func (c *LLC) AllocatedBytes() int64 { return c.allocBytes }

// AllocatedWays returns the way count in the current mask — the COS
// (class-of-service) width, used to label per-COS telemetry series.
func (c *LLC) AllocatedWays() int { return bits.OnesCount64(c.mask) }

// Flush invalidates the entire cache (the paper reboots between the
// largest and smallest allocation to shed out-of-mask residue).
func (c *LLC) Flush() {
	clear(c.tags)
	clear(c.meta)
}

// Stats returns the scaled counters accumulated so far.
func (c *LLC) Stats() Stats { return c.stats }

// sampleIdx returns line / SetSample: the sampled index of the line's
// sampling representative (the nearest lower line ≡ 0 mod SetSample).
func (c *LLC) sampleIdx(line uint64) uint64 {
	if c.sampleShift >= 0 {
		return line >> uint(c.sampleShift)
	}
	return line / c.ss
}

// access simulates one access to the sampled line with index idx (global
// line number / SetSample) and returns 0/1 counts of (miss, writeback);
// dirty is 1 for a write and 0 for a read. Taking the set from the sampled
// index, not the line number, makes consecutive sampled lines sweep the
// simulated sets round-robin, mirroring the balanced set mapping of real
// hardware for sequential data.
func (c *LLC) access(idx, dirty uint64) (miss, wb int64) {
	var s uint64
	if c.setsPow2 {
		s = idx & (c.simSets - 1)
	} else {
		s = idx % c.simSets
	}
	// The set's ways, as two slices of one length: neither loop below
	// bounds-checks.
	ways := c.cfg.Ways
	lo := int(s) * ways
	tags := c.tags[lo : lo+ways : lo+ways]
	meta := c.meta[lo:][:len(tags):len(tags)]
	tag := idx + 1
	c.stamp++
	now := c.stamp << stampShift
	// Lookup searches all ways: CAT does not restrict hits. The predicted
	// way is tried first and believed only on a full tag match.
	hint := &c.hint[idx&c.hintMask]
	if w := int(*hint); w < len(tags) && tags[w] == tag {
		meta[w] = now | meta[w]&lowBits | dirty
		return 0, 0
	}
	for w, t := range tags {
		if t == tag {
			meta[w] = now | meta[w]&lowBits | dirty
			*hint = uint8(w)
			return 0, 0
		}
	}
	// Miss: fill into an allowed way, evicting LRU among allowed ways —
	// the minimum meta word, which carries its own way.
	oldest := ^uint64(0)
	if c.allowed == nil {
		// Two independent chains; an odd last way joins the first.
		m1 := oldest
		for w := 1; w < len(meta); w += 2 {
			oldest = min(oldest, meta[w-1])
			m1 = min(m1, meta[w])
		}
		if len(meta)&1 != 0 {
			oldest = min(oldest, meta[len(meta)-1])
		}
		oldest = min(oldest, m1)
	} else {
		for _, w := range c.allowed {
			oldest = min(oldest, meta[w])
		}
	}
	victim := int(oldest >> wayShift & wayMask)
	if oldest == 0 {
		// An allowed way is invalid (cold fill): take the first in way order.
		for w, m := range meta {
			if m == 0 && c.mask>>uint(w)&1 != 0 {
				victim = w
				break
			}
		}
	}
	tags[victim] = tag
	meta[victim] = now | uint64(victim)<<wayShift | dirty
	*hint = uint8(victim)
	return 1, int64(oldest & 1)
}

// The meta word's layout (see LLC): dirty in bit 0, the way in the six bits
// from wayShift, the stamp from stampShift up.
const (
	wayShift   = 1
	wayMask    = 1<<(stampShift-wayShift) - 1
	stampShift = 7
	lowBits    = 1<<stampShift - 1 // way and dirty: what a hit keeps
)

// checkStamp panics if a bulk touch starting now could carry stamp<<stampShift
// past 64 bits — 2^57 simulated accesses, out of reach in practice, but a
// wrapped stamp would silently corrupt every set's LRU order. No touch
// simulates more than maxSimNonStreaming accesses.
func (c *LLC) checkStamp() {
	if c.stamp >= 1<<(64-stampShift)-maxSimNonStreaming {
		panic(fmt.Sprintf("cache: LLC.stamp = %d, too close to its %d-bit limit", c.stamp, 64-stampShift))
	}
}

// maxSimPerTouch bounds the number of line accesses one bulk touch
// simulates. It is sized so that a touch larger than the cache still fully
// ages every simulated set (samples-per-set comfortably exceeds the
// associativity), preserving the pollution effect of large scans.
const maxSimPerTouch = 1 << 14

// maxSimNonStreaming is the higher bound used for touches that are not
// clearly streaming: those must be sampled at the full 1/SetSample rate or
// the SHARDS size invariant breaks and reuse is over-estimated.
const maxSimNonStreaming = 1 << 17

// maxSimRandomTouch bounds one bulk Random touch (see Random).
const maxSimRandomTouch = 1 << 12

// record folds simulated results back into scaled stats.
func (c *LLC) record(total, simulated, misses, wbs int64) Stats {
	scale := float64(total) / float64(simulated)
	st := Stats{
		Accesses:   total,
		Misses:     int64(float64(misses)*scale + 0.5),
		Writebacks: int64(float64(wbs)*scale + 0.5),
	}
	c.stats.Add(st)
	return st
}

// dirtyBit is access's encoding of a read (0) or a write (1).
func dirtyBit(write bool) uint64 {
	if write {
		return 1
	}
	return 0
}

// Sequential simulates a sequential touch of length bytes starting at byte
// address base and returns scaled counters. Sampled lines are those whose
// global line number is a multiple of SetSample, so repeated scans of the
// same region observe their own reuse.
func (c *LLC) Sequential(base uint64, bytes int64, write bool) Stats {
	if bytes <= 0 {
		return Stats{}
	}
	c.checkStamp()
	lines := (bytes + LineBytes - 1) / LineBytes
	start := base / LineBytes
	dirty := dirtyBit(write)
	// Sampled indices of the sampled lines in [start, start+lines).
	first := c.sampleIdx(start + c.ss - 1)
	end := c.sampleIdx(start + uint64(lines) + c.ss - 1)
	sampledAvail := int64(end - first)
	if sampledAvail == 0 {
		// Touch too small to include a sampled line; probe the nearest
		// sampled representative so tiny hot structures still exercise
		// the model.
		misses, wbs := c.access(c.sampleIdx(start), dirty)
		return c.record(lines, 1, misses, wbs)
	}
	streaming := bytes > 2*c.allocBytes
	limit := int64(maxSimNonStreaming)
	if streaming {
		limit = maxSimPerTouch
	}
	step := uint64(1)
	if sampledAvail > limit {
		step = uint64((sampledAvail + limit - 1) / limit)
	}
	var misses, wbs, simulated int64
	for idx := first; idx < end; idx += step {
		m, w := c.access(idx, dirty)
		simulated++
		misses += m
		wbs += w
	}
	if step > 1 && streaming {
		// Capped streaming touch: the walk above ages the cache, but its
		// sub-rate sampling would overstate reuse on revisits. A region
		// far larger than the allocation cannot be retained, so count the
		// stream as missing throughout. A streamed write dirties every
		// line and each is eventually evicted, so it writes back in full;
		// a streamed read writes back whatever dirty data it displaces.
		swbs := scaleBy(wbs, lines, simulated)
		if write {
			swbs = lines
		}
		return c.record(lines, lines, lines, swbs) // already scaled: every line a miss
	}
	return c.record(lines, simulated, misses, wbs)
}

func scaleBy(n, total, simulated int64) int64 {
	if simulated == 0 {
		return 0
	}
	return int64(float64(n)*float64(total)/float64(simulated) + 0.5)
}

// Random simulates count single-line accesses over a region of regionBytes
// starting at base; positions come from posFn, which must return values in
// [0, 1) (uniform or skewed — the caller owns the distribution). Sampling
// accepts draws that land on sampled lines, so hot lines keep their
// temporal locality.
func (c *LLC) Random(base uint64, regionBytes int64, count int64, write bool, posFn func() float64) Stats {
	if count <= 0 || regionBytes <= 0 {
		return Stats{}
	}
	c.checkStamp()
	regionLines := regionBytes / LineBytes
	if regionLines < 1 {
		regionLines = 1
	}
	want := count / int64(c.ss)
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
	// touches, so hot data keeps consistent identity across access
	// patterns. One simulated access stands for SetSample real ones.
	var misses, wbs int64
	start := base / LineBytes
	dirty := dirtyBit(write)
	for i := int64(0); i < want; i++ {
		off := uint64(float64(regionLines) * posFn())
		if off >= uint64(regionLines) {
			off = uint64(regionLines) - 1
		}
		m, w := c.access(c.sampleIdx(start+off), dirty)
		misses += m
		wbs += w
	}
	return c.record(count, want, misses, wbs)
}
