// Package cache models the data-cache hierarchy of the simulated machine.
// Demand accesses and page-table-walker loads share the same arrays, so
// PTEs compete with program data for capacity — the interaction behind the
// paper's PTE-hotness results (Fig. 8) and the mcf "PTEs outcompete data"
// anomaly (§V-C).
//
// Caches are set-associative with true LRU. Only presence is modelled (no
// data movement): a line address either hits or misses, and the hierarchy
// converts the first hit level into a load-to-use latency.
package cache

import (
	"fmt"
	"math/bits"

	"atscale/internal/arch"
)

// replKind is a replacement policy decoded to a branch-cheap enum at
// construction. The config names policies as strings; comparing those
// per reference (touch and victim run on every probe) would put string
// compares in the hierarchy's hottest loop.
type replKind uint8

const (
	replLRU replKind = iota
	replRandom
	replNRU
)

// Byte-lane constants for the word-parallel recency updates.
const (
	lsb8 = 0x0101010101010101
	msb8 = 0x8080808080808080
	low7 = 0x7F7F7F7F7F7F7F7F
)

// Cache is one set-associative level. Line addresses are physical addresses
// shifted right by the cache-line shift; the caller does the shifting once
// so all three levels share it.
//
// Each set is one block of 64-bit words, so a probe touches one or two
// host cache lines (DESIGN.md §13):
//
//	tags     ceil(ways/2) words: way 2i in the low half of word i, 2i+1 high
//	recency  ceil(ways/8) words: way 8k+j in byte j of word k
//	padding  up to a power-of-two word count
//
// A stored tag is line/sets + 1, so zero marks an empty way and a zeroed
// block is an empty set. The recency byte is the way's LRU rank (0 = most
// recent) under LRU, its reference bit under NRU, and unused under random.
type Cache struct {
	blocks    []uint64
	blockBits uint   // log2 of a block's word count
	tagWords  uint64 // ceil(ways/2)
	ways      int
	latency   uint64
	kind      replKind
	rankWords uint64 // ceil(ways/8)
	// mark's policy constants: rankMask keeps a hit's own rank (0xFF
	// under LRU, else 0), insertFrom is an insert's rank (ways-1 under
	// LRU, else 0), and mru is the byte a marked way takes (1 under NRU,
	// else 0).
	rankMask, insertFrom, mru uint64
	// lastLanes masks the real ways' lanes (byte high bits) in the last
	// recency word; the lanes past the set's ways are padding.
	lastLanes uint64
	// rng is the random policy's xorshift state.
	rng uint64
	// last is 1 + the line the latest hit or fill left most recent in
	// its set, or 0 after an invalidation or reset. Touching that line
	// again changes no state under any policy, so Access answers a
	// repeat access from L1 with one compare. Only L1's is read.
	last uint64

	// Set index and tag. A power-of-two set count takes the low bits of
	// the line as the set and line>>setBits as the quotient; otherwise
	// magic = floor(2^64/sets) gives the quotient by one multiply,
	// corrected once (Table III's L3 has 24576 sets).
	sets      uint64
	blockMask uint64 // (sets-1) << blockBits
	setBits   uint
	magic     uint64
}

// rngSeed is the random policy's fixed xorshift seed.
const rngSeed = 0x853C49E6748FEA9B

// New builds a cache from its geometry.
func New(g arch.CacheGeometry) *Cache {
	if g.Ways > arch.MaxCacheWays {
		panic("cache: associativity above arch.MaxCacheWays")
	}
	sets := uint64(g.Sets())
	kind := replLRU
	switch g.Replacement {
	case arch.ReplaceRandom:
		kind = replRandom
	case arch.ReplaceNRU:
		kind = replNRU
	}
	tagWords, rankWords := uint64(g.Ways+1)/2, uint64(g.Ways+7)/8
	blockBits := uint(bits.Len64(tagWords + rankWords - 1))
	c := &Cache{
		blocks:    make([]uint64, sets<<blockBits),
		blockBits: blockBits,
		tagWords:  tagWords,
		rankWords: rankWords,
		ways:      g.Ways,
		latency:   g.Latency,
		kind:      kind,
		lastLanes: msb8,
		rng:       rngSeed,
		sets:      sets,
	}
	switch kind {
	case replLRU:
		c.rankMask, c.insertFrom = 0xFF, uint64(g.Ways-1)
	case replNRU:
		c.mru = 1
	}
	if n := g.Ways % 8; n != 0 {
		c.lastLanes = msb8 & (1<<(8*n) - 1)
	}
	if sets&(sets-1) == 0 {
		c.blockMask, c.setBits = (sets-1)<<blockBits, uint(bits.TrailingZeros64(sets))
	} else {
		c.magic = ^uint64(0) / sets
	}
	return c
}

// Reset returns the cache to its just-constructed state: every way
// invalid, recency cleared, the random state reseeded. A reset cache is
// indistinguishable from a freshly built one, which is what lets campaign
// machines be pooled without breaking determinism.
func (c *Cache) Reset() {
	clear(c.blocks)
	c.rng = rngSeed
	c.last = 0
}

// Latency returns the level's load-to-use latency in cycles.
func (c *Cache) Latency() uint64 { return c.latency }

// locate returns the offset of the line's set block and the line's tag.
//
//atlint:hotpath
//atlint:inline
func (c *Cache) locate(line uint64) (blk, tag uint64) {
	if c.magic == 0 {
		return line << (c.blockBits & 63) & c.blockMask, line>>(c.setBits&63) + 1
	}
	// magic <= 2^64/sets undershoots the quotient by at most one.
	q, _ := bits.Mul64(line, c.magic)
	set := line - q*c.sets
	if set >= c.sets {
		q++
		set -= c.sets
	}
	return set << (c.blockBits & 63), q + 1
}

// scan is the single pass over a set's tags. On a hit it returns the
// way. On a miss it returns the first tag word with an empty half, or -1
// when every word is full, which insert resolves to the way its fill uses.
//
//atlint:hotpath
//atlint:inline
func (c *Cache) scan(blk, tag uint64) (at int, hit bool) {
	t := uint32(tag)
	room := -1
	for i := range int(c.tagWords) {
		x := c.blocks[blk+uint64(i)]
		if uint32(x) == t {
			return 2 * i, true
		}
		if uint32(x>>32) == t {
			return 2*i + 1, true
		}
		if room < 0 && uint64(uint32(x))*(x>>32) == 0 { // a half is empty
			room = i
		}
	}
	return room, false
}

// recency returns the set's recency words.
func (c *Cache) recency(blk uint64) []uint64 {
	r := blk + c.tagWords
	return c.blocks[r : r+c.rankWords]
}

// rank returns way w's recency byte.
func rank(r []uint64, w int) uint64 { return r[w>>3] >> (uint(w) % 8 * 8) & 0xFF }

// mark makes way w the most recent of the set with recency words r.
// Every recency byte below from moves down one rank and w's byte becomes
// c.mru. Under LRU, from is w's own rank on a hit; an insert passes
// ways-1, which in a full set is the victim's rank and in a set with room
// exceeds every valid way's rank. (Empty ways' bytes move too but stay at
// most ways-1, and no rule reads them.) Under NRU and random from is 0,
// so nothing moves and w's byte becomes its reference bit, or stays 0.
func (c *Cache) mark(r []uint64, w int, from uint64) {
	add := (0x80 - from) * lsb8 // lane high bit set iff the byte >= from
	for k, x := range r {
		r[k] = x + (^(x+add)&msb8)>>7
	}
	sh := uint(w) % 8 * 8
	r[w>>3] = r[w>>3]&^(0xFF<<sh) | c.mru<<sh
}

// touch marks hit way w most recent. It is branch-free on the rank and
// the policy: a hit on the most recent way is a no-op promotion.
//
//atlint:hotpath
func (c *Cache) touch(blk uint64, w int) {
	r := c.recency(blk)
	c.mark(r, w, rank(r, w)&c.rankMask)
}

// insert writes tag into the set at blk, at the way scan's miss result
// names: the empty half of tag word at, or the policy's victim when the
// set is full. The new line becomes most recent.
//
//atlint:hotpath
func (c *Cache) insert(blk, tag uint64, at int) {
	w := -1
	if at >= 0 {
		w = 2 * at
		if uint32(c.blocks[blk+uint64(at)]) != 0 {
			w++
		}
	}
	if w < 0 || w >= c.ways { // full, or only an odd-way set's padding half
		w = c.victim(blk)
	}
	sh := uint(w) % 2 * 32
	t := &c.blocks[blk+uint64(w>>1)]
	*t = *t&^(0xFFFFFFFF<<sh) | uint64(uint32(tag))<<sh
	c.mark(c.recency(blk), w, c.insertFrom)
}

// victim picks the way to evict in the full set at blk.
func (c *Cache) victim(blk uint64) int {
	switch c.kind {
	case replRandom:
		c.rng ^= c.rng << 13
		c.rng ^= c.rng >> 7
		c.rng ^= c.rng << 17
		return int(c.rng % uint64(c.ways))
	case replNRU:
		r := c.recency(blk)
		if w := c.findByte(r, 0); w >= 0 {
			return w
		}
		// All referenced: clear the set's bits and take way 0.
		clear(r)
		return 0
	default: // LRU: ranks are a permutation, the oldest is ways-1
		return c.findByte(c.recency(blk), uint64(c.ways-1))
	}
}

// findByte returns the first way whose recency byte is b, or -1.
func (c *Cache) findByte(r []uint64, b uint64) int {
	for k, x := range r {
		v := x ^ b*lsb8
		z := ^((v&low7 + low7) | v | low7) // lane high bit set iff the byte is zero
		if k == len(r)-1 {
			z &= c.lastLanes
		}
		if z != 0 {
			return 8*k + bits.TrailingZeros64(z)>>3
		}
	}
	return -1
}

// Lookup probes for the line and refreshes its recency state on a hit. It
// does not allocate on a miss (the hierarchy decides fills).
func (c *Cache) Lookup(line uint64) bool {
	blk, tag := c.locate(line)
	w, hit := c.scan(blk, tag)
	if hit {
		c.touch(blk, w)
		c.last = line + 1
	}
	return hit
}

// Fill inserts the line, evicting a victim if the set is full. Filling a
// line that is already present only refreshes its recency state.
func (c *Cache) Fill(line uint64) {
	blk, tag := c.locate(line)
	if w, hit := c.scan(blk, tag); hit {
		c.touch(blk, w)
	} else {
		c.insert(blk, tag, w)
	}
	c.last = line + 1
}

// Invalidate removes the line if present. Under LRU the ranks above the
// way's close the gap, so the valid ways keep ranks 0..n-1; the empty
// way's own byte is left as it is, since no rule reads it.
func (c *Cache) Invalidate(line uint64) {
	blk, tag := c.locate(line)
	w, hit := c.scan(blk, tag)
	if !hit {
		return
	}
	c.last = 0
	c.blocks[blk+uint64(w>>1)] &^= 0xFFFFFFFF << (uint(w) % 2 * 32)
	r := c.recency(blk)
	switch c.kind {
	case replLRU:
		sub := (0x7F - rank(r, w)) * lsb8 // lane high bit set iff the rank > w's
		for k, x := range r {
			r[k] = x - ((x+sub)&msb8)>>7
		}
	case replNRU:
		r[w>>3] &^= 0xFF << (uint(w) % 8 * 8)
	}
}

// Contains probes without touching recency state (test/debug helper).
func (c *Cache) Contains(line uint64) bool {
	_, hit := c.scan(c.locate(line))
	return hit
}

// HitLoc identifies where in the hierarchy an access was satisfied. The
// names mirror the Haswell PAGE_WALKER_LOADS.DTLB_* event suffixes.
type HitLoc uint8

const (
	// HitL1 means the line was found in the L1 data cache.
	HitL1 HitLoc = iota
	// HitL2 means the line was found in the L2 cache.
	HitL2
	// HitL3 means the line was found in the shared L3 cache.
	HitL3
	// HitMem means the access went to DRAM.
	HitMem
	// NumHitLocs is the number of hit locations.
	NumHitLocs
)

// String implements fmt.Stringer.
func (h HitLoc) String() string {
	switch h {
	case HitL1:
		return "L1"
	case HitL2:
		return "L2"
	case HitL3:
		return "L3"
	case HitMem:
		return "Memory"
	}
	return "?"
}

// Hierarchy is the three-level cache stack plus DRAM.
type Hierarchy struct {
	l1, l2, l3 Cache
	dram       uint64
	// maxPA is the last physical address Access accepts. Tags are 32
	// bits wide, which arch.SystemConfig.Validate proves enough for every
	// address below PhysMemBytes; test binaries arm the bound at
	// PhysMemBytes-1 to assert no caller strays above it, and everywhere
	// else it is the whole address space.
	maxPA arch.PAddr
}

// armBound makes NewHierarchy bound accesses by PhysMemBytes; tests set it.
var armBound = false

// NewHierarchy builds the hierarchy described by cfg.
func NewHierarchy(cfg *arch.SystemConfig) *Hierarchy {
	h := &Hierarchy{
		l1:    *New(cfg.L1D),
		l2:    *New(cfg.L2),
		l3:    *New(cfg.L3),
		dram:  cfg.DRAMLatency,
		maxPA: ^arch.PAddr(0),
	}
	if armBound {
		h.maxPA = arch.PAddr(cfg.PhysMemBytes - 1)
	}
	return h
}

// outOfBound reports an access above the armed bound.
//
//go:noinline
func (h *Hierarchy) outOfBound(pa arch.PAddr) {
	panic(fmt.Sprintf("cache: access to PA %#x at or above PhysMemBytes %#x", uint64(pa), uint64(h.maxPA)+1))
}

// Access performs a load of the line containing pa: it returns the
// load-to-use latency and the level that satisfied it, then fills the line
// into every level above the hit (mostly-inclusive, as on Haswell). Each
// level's set is scanned once: a miss leaves the way its fill will use.
//
//atlint:hotpath
func (h *Hierarchy) Access(pa arch.PAddr) (latency uint64, loc HitLoc) {
	if pa > h.maxPA {
		h.outOfBound(pa)
	}
	line := uint64(pa) >> 6 // arch.CacheLineSize == 64
	if line+1 == h.l1.last {
		return h.l1.latency, HitL1
	}
	b1, t1 := h.l1.locate(line)
	w1, hit := h.l1.scan(b1, t1)
	h.l1.last = line + 1
	if hit {
		h.l1.touch(b1, w1)
		return h.l1.latency, HitL1
	}
	b2, t2 := h.l2.locate(line)
	w2, hit := h.l2.scan(b2, t2)
	if hit {
		h.l2.touch(b2, w2)
		h.l1.insert(b1, t1, w1)
		return h.l2.latency, HitL2
	}
	b3, t3 := h.l3.locate(line)
	w3, hit := h.l3.scan(b3, t3)
	if hit {
		h.l3.touch(b3, w3)
		h.l1.insert(b1, t1, w1)
		h.l2.insert(b2, t2, w2)
		return h.l3.latency, HitL3
	}
	h.l1.insert(b1, t1, w1)
	h.l2.insert(b2, t2, w2)
	h.l3.insert(b3, t3, w3)
	return h.dram, HitMem
}

// Reset restores every level to its just-constructed state.
func (h *Hierarchy) Reset() {
	h.l1.Reset()
	h.l2.Reset()
	h.l3.Reset()
}

// Latency returns the load-to-use latency of the given hit location.
func (h *Hierarchy) Latency(loc HitLoc) uint64 {
	switch loc {
	case HitL1:
		return h.l1.latency
	case HitL2:
		return h.l2.latency
	case HitL3:
		return h.l3.latency
	default:
		return h.dram
	}
}

// L1 exposes the first-level cache (test/debug helper).
func (h *Hierarchy) L1() *Cache { return &h.l1 }

// L2 exposes the second-level cache (test/debug helper).
func (h *Hierarchy) L2() *Cache { return &h.l2 }

// L3 exposes the last-level cache (test/debug helper).
func (h *Hierarchy) L3() *Cache { return &h.l3 }
