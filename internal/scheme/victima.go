package scheme

import (
	"atscale/internal/arch"
	"atscale/internal/cache"
	"atscale/internal/mem"
	"atscale/internal/mmucache"
	"atscale/internal/perf"
	"atscale/internal/refute"
	"atscale/internal/telemetry"
	"atscale/internal/walker"
)

// victimaScheme models Victima (Kanellopoulos et al.): the underutilized
// L2/L3 capacity caches *PTE blocks* — whole last-level page-table pages
// — so a TLB miss whose block is cached skips the upper radix levels and
// costs a single leaf PTE load. The model keeps a set-associative
// PTE-block directory mapping a VA 2 MB block (one PT page's reach) to
// the physical PT page holding its leaves; the leaf load itself travels
// through the real L2/L3 model, so block-cached PT pages compete for
// SRAM capacity with data exactly as in the paper. Insertion is
// TLB-pressure-driven: only completed 4 KB walks the paging-structure
// caches could not already short-circuit to one load install their
// block, so a TLB-friendly workload never pollutes the cache.
type victimaScheme struct{}

// Victima directory defaults: 16 K blocks tracks 32 GB of 4 KB-mapped
// reach at 8-way associativity.
const (
	victimaDefaultEntries = 16384
	victimaWays           = 8
	// victimaInsertMinLoads gates insertion on walk pressure: a walk the
	// PSCs already served in one load gains nothing from block caching.
	victimaInsertMinLoads = 2
)

func (victimaScheme) Name() string { return "victima" }

func (victimaScheme) Doc() string {
	return "Victima-style PTE blocks cached in L2/L3 with pressure-driven insertion"
}

func (victimaScheme) Build(d Deps) (Instance, error) {
	entries := d.Cfg.SchemeParams.VictimaEntries
	if entries == 0 {
		entries = victimaDefaultEntries
	}
	if entries < 0 {
		return nil, errf("victima: VictimaEntries must be >= 0, got %d", entries)
	}
	return &victima{
		phys:   d.Phys,
		caches: d.Caches,
		psc:    mmucache.NewWithDepth(d.Cfg.PSC, d.Cfg.PagingLevels),
		dir:    newAssocDir(entries, victimaWays),
	}, nil
}

func (victimaScheme) Events() []perf.Event {
	return []perf.Event{perf.SchemeBlockHits, perf.SchemeBlockMisses}
}

func (victimaScheme) Identities() []refute.Identity {
	blockProbes := refute.Sum(refute.Ev("scheme_walk_loads.block_hit"),
		refute.Ev("scheme_walk_loads.block_miss"))
	return []refute.Identity{
		{
			Name: "victima_probe_conservation",
			Doc: "every accounted walk probes the PTE-block directory exactly once " +
				"(fault retries re-probe like they re-load, prefetch walks count in neither domain)",
			L: blockProbes, Rel: refute.EQ,
			R: refute.Sum(refute.Ev("dtlb_load_misses.miss_causes_a_walk"),
				refute.Ev("dtlb_store_misses.miss_causes_a_walk"),
				refute.Ev("faults")),
			Guards: []refute.Expr{blockProbes},
		},
	}
}

// victima is one machine's Victima walk state.
type victima struct {
	phys   *mem.Phys
	caches *cache.Hierarchy
	psc    *mmucache.PSC
	dir    *assocDir

	trk   *telemetry.Track
	clock func() uint64
	pt    walker.Path
}

// Walk implements walker.Engine: probe the PTE-block directory first; a
// hit short-circuits to the single leaf load (a one-step descent from the
// cached PT page), a miss takes the normal radix walk (PSC entry point
// included) and, under pressure, installs the block.
//
//atlint:hotpath
func (v *victima) Walk(va arch.VAddr, cr3 arch.PAddr, budget uint64) walker.Result {
	var r walker.Result
	walker.TraceBegin(v.trk, v.clock)
	r.BlockProbed = true
	block := uint64(va) >> arch.PageShift2M
	if base, ok := v.dir.lookup(block); ok {
		// The cached block located the PT page; the leaf entry itself may
		// still be non-present (a not-yet-faulted page sharing the block)
		// — that is a page fault, and the post-fault retry hits the block
		// again with the entry now filled in.
		r.BlockHit = true
		v.pt.Resolve(v.phys, va, arch.LevelPT, base)
	} else {
		level, base := v.psc.LookupDeepest(va, arch.LevelPT, cr3)
		r.GuestPSCHit = level != v.psc.Top()
		v.pt.Resolve(v.phys, va, level, base)
	}
	v.pt.Charge(v.caches, v.psc, va, budget, nil, &r, v.trk, true)
	// A block hit is one load, so only a miss-path walk can pass the
	// pressure gate.
	if r.OK && r.Size == arch.Page4K && r.Loads >= victimaInsertMinLoads {
		// The walk's leaf entry sits inside the PT page; its 4 KB base is
		// the block payload.
		v.dir.insert(block, arch.PAddr(arch.AlignDown(uint64(v.pt.LastEntry()), arch.Page4K.Bytes())))
	}
	walker.TraceEnd(v.trk, &r)
	return r
}

// Flush implements walker.Engine: the directory is keyed by virtual
// block, so a context switch drops it along with the PSCs.
func (v *victima) Flush() {
	v.psc.Flush()
	v.dir.flush()
}

// InvalidateBlock implements walker.Engine: promotion replaces the PT
// page with a 2 MB leaf, so the covering block entry (and PDE-cache
// entry) must go.
func (v *victima) InvalidateBlock(va arch.VAddr) {
	v.psc.InvalidatePrefix(arch.LevelPD, va)
	v.dir.invalidate(uint64(va) >> arch.PageShift2M)
}

// Reset implements Instance.
func (v *victima) Reset() {
	v.psc.Reset()
	v.dir.reset()
	v.trk, v.clock = nil, nil
}

// EnableTrace implements Instance.
func (v *victima) EnableTrace(p *telemetry.Process, clock func() uint64) {
	v.trk, v.clock = p.Track("walker"), clock
}

// BlockDirLive returns the number of valid PTE-block directory entries
// (test/debug helper).
func (v *victima) BlockDirLive() int { return v.dir.live() }
