// Package tlb models translation lookaside buffers: set-associative arrays
// mapping virtual page numbers to physical frames, with true LRU within
// each set. The Hierarchy type assembles the Haswell arrangement the paper
// measures: split first-level TLBs per page size backed by a unified
// second-level STLB shared by 4 KB and 2 MB translations.
package tlb

import (
	"math"

	"atscale/internal/arch"
)

// Entry is one cached translation.
type Entry struct {
	// VPN is the virtual page number (va >> size shift).
	VPN uint64
	// Frame is the physical base address of the mapped page.
	Frame arch.PAddr
	// Size is the mapping's page size.
	Size arch.PageSize
}

// emptyKey marks an empty way; no vpn<<2|size key reaches it, since the
// size field is at most 2.
const emptyKey = math.MaxUint64

// key packs a translation's identity into one word, so a way matches
// with one compare.
func key(vpn uint64, ps arch.PageSize) uint64 { return vpn<<2 | uint64(ps) }

// probe is one page size a TLB holds, with its VPN shift.
type probe struct {
	shift uint
	size  arch.PageSize
}

// TLB is one set-associative translation cache. A TLB may hold a single
// page size (split L1 arrays) or several (unified STLB); the set index and
// tag are derived from the VPN at each entry's own page size, and lookups
// probe once per size the TLB holds.
//
// Way i of set s lives at index s*ways+i of three parallel arrays, so a
// probe scans one contiguous run of keys and reads the frame and stamp
// only on a hit.
type TLB struct {
	ways   int
	keys   []uint64 // key(vpn, size), or emptyKey
	frames []arch.PAddr
	stamps []uint64 // LRU: the clock at the way's last reference
	clock  uint64
	// live counts valid ways, so a lookup in an empty array (the 4 KB
	// L1 TLB of a run on 2 MB pages) returns without scanning.
	live int

	// probes lists the held sizes smallest first, so a lookup visits
	// only those.
	probes []probe
	holds  [arch.NumPageSizes]bool

	// mask is sets-1 when the set count is a power of two (every Table
	// III TLB geometry), turning the per-lookup set index into an AND;
	// the modulo path remains for arbitrary geometries.
	sets uint64
	mask uint64
	pow2 bool
}

// setBase returns the first way index of a VPN's set.
func (t *TLB) setBase(vpn uint64) uint64 {
	if t.pow2 {
		return (vpn & t.mask) * uint64(t.ways)
	}
	return (vpn % t.sets) * uint64(t.ways)
}

// New builds a TLB from its geometry, holding the given page sizes.
// A geometry with zero entries yields a disabled TLB that never hits.
func New(g arch.TLBGeometry, sizes ...arch.PageSize) *TLB {
	t := &TLB{}
	if g.Entries == 0 {
		return t
	}
	t.sets = uint64(g.Entries / g.Ways)
	t.ways = g.Ways
	if t.sets&(t.sets-1) == 0 {
		t.pow2, t.mask = true, t.sets-1
	}
	t.keys = make([]uint64, g.Entries)
	t.frames = make([]arch.PAddr, g.Entries)
	t.stamps = make([]uint64, g.Entries)
	for i := range t.keys {
		t.keys[i] = emptyKey
	}
	for _, s := range sizes {
		t.holds[s] = true
	}
	for ps := arch.Page4K; ps < arch.NumPageSizes; ps++ {
		if t.holds[ps] {
			t.probes = append(t.probes, probe{shift: ps.Shift(), size: ps})
		}
	}
	return t
}

// Holds reports whether the TLB caches translations of the given size.
func (t *TLB) Holds(ps arch.PageSize) bool { return t.holds[ps] }

// Lookup probes for a translation of va at any size the TLB holds,
// refreshing LRU on a hit.
//
//atlint:hotpath
func (t *TLB) Lookup(va arch.VAddr) (Entry, bool) {
	t.clock++
	if t.live == 0 {
		return Entry{}, false
	}
	for _, p := range t.probes {
		vpn := uint64(va) >> p.shift
		k := key(vpn, p.size)
		base := t.setBase(vpn)
		// Slice the set once so the way scan runs without bounds checks
		// (this probe sits on every simulated memory access).
		for w, got := range t.keys[base : base+uint64(t.ways)] {
			if got == k {
				i := base + uint64(w)
				t.stamps[i] = t.clock
				return Entry{VPN: vpn, Frame: t.frames[i], Size: p.size}, true
			}
		}
	}
	return Entry{}, false
}

// Insert caches the translation of va (page base) -> frame at the given
// size, evicting the set's LRU entry if needed. Inserting a translation
// that is already present refreshes it in place.
func (t *TLB) Insert(va arch.VAddr, frame arch.PAddr, ps arch.PageSize) {
	if !t.holds[ps] {
		return
	}
	t.clock++
	vpn := arch.PageNumber(va, ps)
	k := key(vpn, ps)
	base := t.setBase(vpn)
	end := base + uint64(t.ways)
	keys, stamps := t.keys[base:end], t.stamps[base:end]
	// The victim is the first empty way, else the oldest stamp.
	victim := 0
	oldest := uint64(math.MaxUint64)
	for w, got := range keys {
		if got == k {
			t.frames[base+uint64(w)] = frame
			stamps[w] = t.clock
			return
		}
		if got == emptyKey {
			if oldest != 0 {
				victim, oldest = w, 0
			}
			continue
		}
		if stamps[w] < oldest {
			victim, oldest = w, stamps[w]
		}
	}
	if keys[victim] == emptyKey {
		t.live++
	}
	keys[victim], stamps[victim] = k, t.clock
	t.frames[base+uint64(victim)] = frame
}

// InvalidatePage drops the translation of va at the given size if present.
func (t *TLB) InvalidatePage(va arch.VAddr, ps arch.PageSize) {
	if !t.holds[ps] {
		return
	}
	vpn := arch.PageNumber(va, ps)
	k := key(vpn, ps)
	base := t.setBase(vpn)
	for i := base; i < base+uint64(t.ways); i++ {
		if t.keys[i] == k {
			t.keys[i], t.stamps[i] = emptyKey, 0
			t.live--
		}
	}
}

// Reset returns the TLB to its just-constructed state: every way
// invalid and the LRU clock back at zero. Unlike Flush, which keeps the
// clock running (an architectural invalidation mid-run), Reset also
// rewinds the recency clock so a pooled machine's TLB is
// indistinguishable from a fresh one.
func (t *TLB) Reset() {
	t.Flush()
	clear(t.frames)
	t.clock = 0
}

// Flush empties the TLB.
func (t *TLB) Flush() {
	for i := range t.keys {
		t.keys[i] = emptyKey
	}
	clear(t.stamps)
	t.live = 0
}

// Live returns the number of valid entries (test/debug helper).
func (t *TLB) Live() int { return t.live }

// Level says where a hierarchy lookup was satisfied.
type Level uint8

const (
	// HitL1 means the first-level TLB translated the access.
	HitL1 Level = iota
	// HitSTLB means the second-level TLB translated it (extra latency).
	HitSTLB
	// Miss means no TLB holds the translation; a page walk is required.
	Miss
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case HitL1:
		return "L1TLB"
	case HitSTLB:
		return "STLB"
	case Miss:
		return "miss"
	}
	return "?"
}

// Result is the outcome of a hierarchy lookup.
type Result struct {
	// Level says which array (if any) translated the access.
	Level Level
	// Entry is valid when Level != Miss.
	Entry Entry
}

// Hierarchy is the two-level TLB arrangement of the simulated machine.
type Hierarchy struct {
	l1   [arch.NumPageSizes]*TLB
	stlb *TLB
}

// NewHierarchy builds the TLB hierarchy described by cfg.
func NewHierarchy(cfg *arch.SystemConfig) *Hierarchy {
	h := &Hierarchy{}
	for ps := arch.Page4K; ps < arch.NumPageSizes; ps++ {
		h.l1[ps] = New(cfg.L1TLB[ps], ps)
	}
	stlbSizes := []arch.PageSize{arch.Page4K, arch.Page2M}
	if cfg.STLBHolds1G {
		stlbSizes = append(stlbSizes, arch.Page1G)
	}
	h.stlb = New(cfg.STLB, stlbSizes...)
	return h
}

// Lookup translates va through the hierarchy. An STLB hit promotes the
// translation into the appropriate L1 array, as hardware does.
//
//atlint:hotpath
func (h *Hierarchy) Lookup(va arch.VAddr) Result {
	for ps := arch.Page4K; ps < arch.NumPageSizes; ps++ {
		if e, ok := h.l1[ps].Lookup(va); ok {
			return Result{Level: HitL1, Entry: e}
		}
	}
	if e, ok := h.stlb.Lookup(va); ok {
		h.l1[e.Size].Insert(va, e.Frame, e.Size)
		return Result{Level: HitSTLB, Entry: e}
	}
	return Result{Level: Miss}
}

// Fill installs a completed walk's translation into the L1 array for its
// size and into the STLB (when the STLB holds that size).
func (h *Hierarchy) Fill(va arch.VAddr, frame arch.PAddr, ps arch.PageSize) {
	h.l1[ps].Insert(va, frame, ps)
	h.stlb.Insert(va, frame, ps)
}

// FillSTLB installs a translation into the STLB only — the insertion
// point for prefetched translations, which must not displace L1 entries.
func (h *Hierarchy) FillSTLB(va arch.VAddr, frame arch.PAddr, ps arch.PageSize) {
	h.stlb.Insert(va, frame, ps)
}

// InvalidatePage removes the translation for va at the given size from
// every array.
func (h *Hierarchy) InvalidatePage(va arch.VAddr, ps arch.PageSize) {
	h.l1[ps].InvalidatePage(va, ps)
	h.stlb.InvalidatePage(va, ps)
}

// Reset returns every array to its just-constructed state (see
// TLB.Reset for how this differs from Flush).
func (h *Hierarchy) Reset() {
	for _, t := range h.l1 {
		t.Reset()
	}
	h.stlb.Reset()
}

// Flush empties every array.
func (h *Hierarchy) Flush() {
	for _, t := range h.l1 {
		t.Flush()
	}
	h.stlb.Flush()
}

// L1 exposes the first-level array for a size (test/debug helper).
func (h *Hierarchy) L1(ps arch.PageSize) *TLB { return h.l1[ps] }

// STLB exposes the second-level array (test/debug helper).
func (h *Hierarchy) STLB() *TLB { return h.stlb }
