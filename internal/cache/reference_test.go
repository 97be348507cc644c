package cache

import (
	"math"

	"atscale/internal/arch"
)

// refCache is the cache model's previous storage layout, kept verbatim
// (renamed) as the oracle for the differential tests in
// differential_test.go: separate 64-bit tag and recency-stamp arrays,
// full line addresses as tags, and an LRU clock whose minimum stamp
// names the victim.

// refInvalidTag marks an empty way.
const refInvalidTag = math.MaxUint64

// refCache is one set-associative level. Line addresses are physical addresses
// shifted right by the cache-line shift; the caller does the shifting once
// so all three levels share it.
type refCache struct {
	sets    uint64
	ways    uint64
	latency uint64
	kind    replKind

	tags []uint64
	// stamp carries the policy's recency state: an LRU timestamp, or an
	// NRU reference bit.
	stamp []uint64
	clock uint64
	// rng is the random policy's xorshift state.
	rng uint64

	// mask is sets-1 when the set count is a power of two (pow2), letting
	// the per-access set index be an AND instead of a runtime division.
	// Table III's L3 (24576 sets) is not a power of two, so the modulo
	// path stays load-bearing.
	mask uint64
	pow2 bool
}

// setBase returns the first way index of the line's set.
func (c *refCache) setBase(line uint64) uint64 {
	if c.pow2 {
		return (line & c.mask) * c.ways
	}
	return (line % c.sets) * c.ways
}

// newRefCache builds a cache from its geometry.
func newRefCache(g arch.CacheGeometry) *refCache {
	lines := g.SizeBytes / arch.CacheLineSize
	sets := uint64(lines / g.Ways)
	kind := replLRU
	switch g.Replacement {
	case arch.ReplaceRandom:
		kind = replRandom
	case arch.ReplaceNRU:
		kind = replNRU
	}
	c := &refCache{
		sets:    sets,
		ways:    uint64(g.Ways),
		latency: g.Latency,
		kind:    kind,
		tags:    make([]uint64, lines),
		stamp:   make([]uint64, lines),
		rng:     rngSeed,
	}
	if sets > 0 && sets&(sets-1) == 0 {
		c.pow2, c.mask = true, sets-1
	}
	for i := range c.tags {
		c.tags[i] = refInvalidTag
	}
	return c
}

// Reset returns the cache to its just-constructed state: every way
// invalid, recency cleared, the policy clock and random state reseeded.
// A reset cache is indistinguishable from a freshly built one, which is
// what lets campaign machines be pooled without breaking determinism.
func (c *refCache) Reset() {
	for i := range c.tags {
		c.tags[i] = refInvalidTag
	}
	clear(c.stamp)
	c.clock = 0
	c.rng = rngSeed
}

// Latency returns the level's load-to-use latency in cycles.
func (c *refCache) Latency() uint64 { return c.latency }

// touch refreshes a way's recency state on a reference: an NRU
// reference bit, or an LRU timestamp (random keeps timestamps too but
// ignores them).
func (c *refCache) touch(i uint64) {
	s := c.clock
	if c.kind == replNRU {
		s = 1
	}
	c.stamp[i] = s
}

// Lookup probes for the line and refreshes its recency state on a hit. It
// does not allocate on a miss (the hierarchy decides fills).
func (c *refCache) Lookup(line uint64) bool {
	base := c.setBase(line)
	c.clock++
	// This way scan is the single hottest loop in the simulator (every
	// demand access and PTE load probes three levels). It must stay
	// within the compiler's inlining budget: losing the inline into
	// Hierarchy.Access costs more than any micro-shaving here gains —
	// which is why the touch logic is open-coded with the stamp value
	// hoisted out of the loop.
	s := c.clock
	if c.kind == replNRU {
		s = 1
	}
	for w := uint64(0); w < c.ways; w++ {
		if c.tags[base+w] == line {
			c.stamp[base+w] = s
			return true
		}
	}
	return false
}

// victim picks the way to evict in a full set starting at base.
func (c *refCache) victim(base uint64) uint64 {
	switch c.kind {
	case replRandom:
		c.rng ^= c.rng << 13
		c.rng ^= c.rng >> 7
		c.rng ^= c.rng << 17
		return base + c.rng%c.ways
	case replNRU:
		for w := uint64(0); w < c.ways; w++ {
			if c.stamp[base+w] == 0 {
				return base + w
			}
		}
		// All referenced: clear the set's bits and take way 0.
		for w := uint64(0); w < c.ways; w++ {
			c.stamp[base+w] = 0
		}
		return base
	default: // LRU
		stamps := c.stamp[base : base+c.ways]
		victim := 0
		oldest := uint64(math.MaxUint64)
		for w, s := range stamps {
			if s < oldest {
				victim, oldest = w, s
			}
		}
		return base + uint64(victim)
	}
}

// Fill inserts the line, evicting a victim if the set is full. Filling a
// line that is already present only refreshes its recency state.
func (c *refCache) Fill(line uint64) {
	base := c.setBase(line)
	c.clock++
	set := c.tags[base : base+c.ways]
	empty := -1
	for w, tag := range set {
		if tag == line {
			c.touch(base + uint64(w))
			return
		}
		if tag == refInvalidTag && empty < 0 {
			empty = w
		}
	}
	var i uint64
	if empty >= 0 {
		i = base + uint64(empty)
	} else {
		i = c.victim(base)
	}
	c.tags[i] = line
	c.touch(i)
}

// Invalidate removes the line if present.
func (c *refCache) Invalidate(line uint64) {
	base := c.setBase(line)
	for w := uint64(0); w < c.ways; w++ {
		if c.tags[base+w] == line {
			c.tags[base+w] = refInvalidTag
			c.stamp[base+w] = 0
			return
		}
	}
}

// Contains probes without touching LRU state (test/debug helper).
func (c *refCache) Contains(line uint64) bool {
	base := c.setBase(line)
	for w := uint64(0); w < c.ways; w++ {
		if c.tags[base+w] == line {
			return true
		}
	}
	return false
}

// refHierarchy is the previous three-level stack over refCache, with
// Access kept verbatim.
type refHierarchy struct {
	l1, l2, l3 *refCache
	dram       uint64
}

func newRefHierarchy(cfg *arch.SystemConfig) *refHierarchy {
	return &refHierarchy{
		l1:   newRefCache(cfg.L1D),
		l2:   newRefCache(cfg.L2),
		l3:   newRefCache(cfg.L3),
		dram: cfg.DRAMLatency,
	}
}

func (h *refHierarchy) Access(pa arch.PAddr) (latency uint64, loc HitLoc) {
	line := uint64(pa) >> 6 // arch.CacheLineSize == 64
	switch {
	case h.l1.Lookup(line):
		return h.l1.latency, HitL1
	case h.l2.Lookup(line):
		h.l1.Fill(line)
		return h.l2.latency, HitL2
	case h.l3.Lookup(line):
		h.l1.Fill(line)
		h.l2.Fill(line)
		return h.l3.latency, HitL3
	default:
		h.l1.Fill(line)
		h.l2.Fill(line)
		h.l3.Fill(line)
		return h.dram, HitMem
	}
}
