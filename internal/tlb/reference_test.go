package tlb

import (
	"math"

	"atscale/internal/arch"
)

// refTLB is the TLB model's previous storage layout, kept verbatim
// (renamed) as the oracle for the differential tests in
// differential_test.go: one struct per way holding the VPN, frame,
// page size and LRU stamp, probed once per held size.

const refInvalidVPN = math.MaxUint64

type refWay struct {
	vpn   uint64
	frame arch.PAddr
	size  arch.PageSize
	stamp uint64
}

// refTLB is one set-associative translation cache. A TLB may hold a single
// page size (split L1 arrays) or several (unified STLB); the set index and
// tag are derived from the VPN at each entry's own page size, and lookups
// probe once per size the TLB holds.
type refTLB struct {
	sets  int
	ways  int
	holds [arch.NumPageSizes]bool
	data  []refWay
	clock uint64

	// mask is sets-1 when the set count is a power of two (every Table
	// III TLB geometry), turning the per-lookup set index into an AND;
	// the modulo path remains for arbitrary geometries.
	mask uint64
	pow2 bool
}

// setBase returns the first way index of a VPN's set.
func (t *refTLB) setBase(vpn uint64) uint64 {
	if t.pow2 {
		return (vpn & t.mask) * uint64(t.ways)
	}
	return (vpn % uint64(t.sets)) * uint64(t.ways)
}

// newRefTLB builds a TLB from its geometry, holding the given page sizes.
// A geometry with zero entries yields a disabled TLB that never hits.
func newRefTLB(g arch.TLBGeometry, sizes ...arch.PageSize) *refTLB {
	t := &refTLB{}
	if g.Entries == 0 {
		return t
	}
	t.sets = g.Entries / g.Ways
	t.ways = g.Ways
	if t.sets > 0 && t.sets&(t.sets-1) == 0 {
		t.pow2, t.mask = true, uint64(t.sets-1)
	}
	t.data = make([]refWay, g.Entries)
	for i := range t.data {
		t.data[i].vpn = refInvalidVPN
	}
	for _, s := range sizes {
		t.holds[s] = true
	}
	return t
}

// Holds reports whether the TLB caches translations of the given size.
func (t *refTLB) Holds(ps arch.PageSize) bool { return t.holds[ps] }

// Lookup probes for a translation of va at any size the TLB holds,
// refreshing LRU on a hit.
func (t *refTLB) Lookup(va arch.VAddr) (Entry, bool) {
	if t.sets == 0 {
		return Entry{}, false
	}
	t.clock++
	for ps := arch.Page4K; ps < arch.NumPageSizes; ps++ {
		if !t.holds[ps] {
			continue
		}
		vpn := arch.PageNumber(va, ps)
		base := t.setBase(vpn)
		// Slice the set once so the way scan runs without bounds checks
		// (this probe sits on every simulated memory access).
		set := t.data[base : base+uint64(t.ways)]
		for w := range set {
			e := &set[w]
			if e.vpn == vpn && e.size == ps {
				e.stamp = t.clock
				return Entry{VPN: vpn, Frame: e.frame, Size: ps}, true
			}
		}
	}
	return Entry{}, false
}

// Insert caches the translation of va (page base) -> frame at the given
// size, evicting the set's LRU entry if needed. Inserting a translation
// that is already present refreshes it in place.
func (t *refTLB) Insert(va arch.VAddr, frame arch.PAddr, ps arch.PageSize) {
	if t.sets == 0 || !t.holds[ps] {
		return
	}
	t.clock++
	vpn := arch.PageNumber(va, ps)
	base := t.setBase(vpn)
	set := t.data[base : base+uint64(t.ways)]
	victim := 0
	oldest := uint64(math.MaxUint64)
	for w := range set {
		e := &set[w]
		if e.vpn == vpn && e.size == ps {
			e.frame = frame
			e.stamp = t.clock
			return
		}
		if e.vpn == refInvalidVPN {
			if oldest != 0 {
				victim, oldest = w, 0
			}
			continue
		}
		if e.stamp < oldest {
			victim, oldest = w, e.stamp
		}
	}
	set[victim] = refWay{vpn: vpn, frame: frame, size: ps, stamp: t.clock}
}

// InvalidatePage drops the translation of va at the given size if present.
func (t *refTLB) InvalidatePage(va arch.VAddr, ps arch.PageSize) {
	if t.sets == 0 || !t.holds[ps] {
		return
	}
	vpn := arch.PageNumber(va, ps)
	base := t.setBase(vpn)
	for w := 0; w < t.ways; w++ {
		e := &t.data[base+uint64(w)]
		if e.vpn == vpn && e.size == ps {
			e.vpn = refInvalidVPN
			e.stamp = 0
		}
	}
}

// Reset returns the TLB to its just-constructed state: every way
// invalid and the LRU clock back at zero. Unlike Flush, which keeps the
// clock running (an architectural invalidation mid-run), Reset also
// rewinds the recency clock so a pooled machine's TLB is
// indistinguishable from a fresh one.
func (t *refTLB) Reset() {
	t.Flush()
	t.clock = 0
}

// Flush empties the TLB.
func (t *refTLB) Flush() {
	for i := range t.data {
		t.data[i].vpn = refInvalidVPN
		t.data[i].stamp = 0
	}
}

// Live returns the number of valid entries (test/debug helper).
func (t *refTLB) Live() int {
	n := 0
	for i := range t.data {
		if t.data[i].vpn != refInvalidVPN {
			n++
		}
	}
	return n
}
