// Package walker models the hardware page-table walker. On a TLB miss the
// walker resolves a virtual address by loading page-table entries from
// simulated physical memory: it starts from the deepest paging-structure
// cache hit and performs one cache-hierarchy load per remaining level, so
// a walk costs between one load (PDE-cache hit) and four (cold 4 KB walk).
//
// Each PTE load travels through the same L1/L2/L3/DRAM hierarchy as program
// data. The per-load hit locations are recorded — they are the Haswell
// PAGE_WALKER_LOADS.DTLB_{L1,L2,L3,MEMORY} events behind the paper's
// Figure 8 — and a cycle budget allows speculative walks to abort midway,
// producing the initiated-but-not-completed walks of §V-D.
package walker

import (
	"math"

	"atscale/internal/arch"
	"atscale/internal/cache"
	"atscale/internal/mem"
	"atscale/internal/mmucache"
	"atscale/internal/telemetry"
)

// NoBudget makes Walk run to completion.
const NoBudget = math.MaxUint64

// Result describes one walk.
type Result struct {
	// OK is true when a present leaf was found. A completed walk with
	// OK == false is a page fault.
	OK bool
	// Completed is false when the walk was aborted by its cycle budget.
	Completed bool
	// Frame is the physical base of the mapped page (valid when OK).
	Frame arch.PAddr
	// Size is the mapping's page size (valid when OK).
	Size arch.PageSize
	// Cycles is the latency accrued, including partial work on aborts.
	Cycles uint64
	// Loads is the number of PTE loads performed, both dimensions
	// included for nested walks (GuestLoads + EPTLoads).
	Loads int
	// Locs counts the guest-dimension loads by the cache level that
	// satisfied them (every load, for native walks).
	Locs [cache.NumHitLocs]uint16
	// LeafLoc is the cache level that served the final (leaf) PTE load
	// of the guest dimension — the per-walk datum behind PEBS-style
	// sample attribution.
	LeafLoc cache.HitLoc

	// The remaining fields are populated by the nested (2D) walker only
	// and stay zero for native walks, except GuestLoads, which always
	// mirrors the guest-dimension load count.

	// GuestLoads is the number of guest page-table entry loads.
	GuestLoads int
	// EPTLoads is the number of EPT entry loads across all the walk's
	// EPT walks.
	EPTLoads int
	// EPTCycles is the latency accrued inside EPT walks (a subset of
	// Cycles; the guest-dimension share is Cycles - EPTCycles).
	EPTCycles uint64
	// EPTLocs counts EPTLoads by the cache level that satisfied them.
	EPTLocs [cache.NumHitLocs]uint16
	// EPTWalks is the number of completed EPT walks.
	EPTWalks int
	// NTLBHits / NTLBMisses count EPT translations served by the nTLB
	// versus requiring an EPT walk.
	NTLBHits, NTLBMisses int
	// GuestPSCHit is true when the guest dimension started below the
	// root thanks to a paging-structure-cache hit.
	GuestPSCHit bool

	// The scheme-accounting fields below are populated by the pluggable
	// translation-scheme backends (internal/scheme) and stay zero for
	// the built-in engines. The core books them into the scheme_* perf
	// event family.

	// BlockProbed marks a walk that probed a Victima-style PTE-block
	// directory; BlockHit records whether the probe short-circuited the
	// walk to a single leaf load.
	BlockProbed bool
	BlockHit    bool
	// Replica classifies a Mitosis walk by where its PTE loads were
	// homed: the walking node's own tables (local) or another node's
	// (remote). ReplicaNone for schemes without replicas.
	Replica ReplicaClass
	// DCHits / DCMisses count this walk's PTE loads that missed SRAM
	// and hit / missed the die-stacked DRAM cache.
	DCHits, DCMisses uint16
}

// ReplicaClass classifies a walk's table locality under page-table
// replication (the Replica field of Result).
type ReplicaClass uint8

// Replica walk classes.
const (
	// ReplicaNone: the scheme does not replicate page tables.
	ReplicaNone ReplicaClass = iota
	// ReplicaLocal: every PTE load stayed on the walking node.
	ReplicaLocal
	// ReplicaRemote: at least one PTE load was homed on another node.
	ReplicaRemote
)

// Engine is the hardware translation engine the core drives on a TLB
// miss. The radix Walker is the production implementation; the hashed
// walker (hashed.go) implements the alternative page-table organization
// the paper's discussion points at.
type Engine interface {
	// Walk resolves va within the cycle budget.
	Walk(va arch.VAddr, cr3 arch.PAddr, budget uint64) Result
	// Flush drops all cached partial-walk state (context switch).
	Flush()
	// InvalidateBlock drops partial-walk state covering va's 2 MB block
	// (hugepage promotion's PDE shootdown).
	InvalidateBlock(va arch.VAddr)
}

// Walker is the radix hardware walker plus its paging-structure caches.
type Walker struct {
	phys   *mem.Phys
	psc    *mmucache.PSC
	caches *cache.Hierarchy

	// trk, when non-nil, receives one span per walk with a nested slice
	// per radix level; clock supplies the shared simulated-cycle clock
	// (the core cycle counter) the track syncs to at walk start. With
	// trk nil every hook below is a single pointer compare.
	trk   *telemetry.Track
	clock func() uint64
}

// New builds a walker that loads PTEs through the given cache hierarchy.
func New(phys *mem.Phys, psc *mmucache.PSC, caches *cache.Hierarchy) *Walker {
	return &Walker{phys: phys, psc: psc, caches: caches}
}

// SetTrace attaches (or, with a nil track, detaches) the walker's
// timeline track. clock supplies simulated-cycle timestamps for walk
// starts; per-level slice durations come from the walk itself.
func (w *Walker) SetTrace(trk *telemetry.Track, clock func() uint64) {
	w.trk, w.clock = trk, clock
}

// Flush implements Engine.
func (w *Walker) Flush() { w.psc.Flush() }

// Reset returns the walker to its just-constructed state: paging
// structure caches emptied with their clocks rewound, trace detached.
func (w *Walker) Reset() {
	w.psc.Reset()
	w.trk, w.clock = nil, nil
}

// InvalidateBlock implements Engine.
func (w *Walker) InvalidateBlock(va arch.VAddr) {
	w.psc.InvalidatePrefix(arch.LevelPD, va)
}

// Walk resolves va against the page table rooted at cr3. budget bounds the
// cycles the walk may consume before being aborted (pass NoBudget for
// demand walks, which always run to completion). The walk enters the
// radix path at the deepest paging-structure-cache hit, then resolves and
// charges it with the shared walk loop (Path).
//
//atlint:hotpath
func (w *Walker) Walk(va arch.VAddr, cr3 arch.PAddr, budget uint64) Result {
	var r Result
	TraceBegin(w.trk, w.clock)
	level, base := w.psc.LookupDeepest(va, arch.LevelPT, cr3)
	r.GuestPSCHit = level != w.psc.Top()
	var p Path
	p.Resolve(w.phys, va, level, base)
	p.Charge(w.caches, w.psc, va, budget, nil, &r, w.trk, true)
	TraceEnd(w.trk, &r)
	return r
}
