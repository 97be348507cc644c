package walker

import (
	"atscale/internal/arch"
	"atscale/internal/cache"
	"atscale/internal/mem"
	"atscale/internal/mmucache"
	"atscale/internal/pagetable"
	"atscale/internal/telemetry"
)

// stepOverhead is the fixed per-level cost of the walker state machine on
// top of the PTE load latency.
const stepOverhead = 2

// maxSteps is the longest radix path (five-level paging, PML5 -> PT).
const maxSteps = 5

// Path is one resolved radix descent: the entry address and level of
// every step, the frame each non-terminal step descended into, and the
// terminal outcome. It is the one native radix walk loop, split in two
// passes. Resolve computes each level's entry address exactly once and
// reads the path with raw physical reads, which touch no cache or
// counter state. Charge then issues the PTE loads through the cache
// hierarchy. The split lets scheme backends reprice individual loads
// and charge several partial descents against one budget.
type Path struct {
	ea     [maxSteps]arch.PAddr
	frames [maxSteps]arch.PAddr
	lvls   [maxSteps]arch.Level
	steps  int
	ok     bool
	frame  arch.PAddr
	leaf   arch.Level
}

// Resolve fills p with the radix descent for va starting at (level,
// base), typically the deepest paging-structure-cache hit. The descent
// ends at a present leaf (OK) or a non-present entry (fault at the last
// recorded step); budget abortion is decided by Charge.
//
//atlint:hotpath
func (p *Path) Resolve(phys *mem.Phys, va arch.VAddr, level arch.Level, base arch.PAddr) {
	p.steps, p.ok = 0, false
	for {
		a := pagetable.EntryAddr(base, level, va)
		p.ea[p.steps], p.lvls[p.steps] = a, level
		p.steps++
		e := pagetable.PTE(phys.Read64(a))
		if !e.Present() {
			return
		}
		if e.IsLeaf(level) {
			p.ok, p.frame, p.leaf = true, e.Frame(), level
			return
		}
		p.frames[p.steps-1] = e.Frame()
		base = e.Frame()
		level--
	}
}

// OK reports whether the resolved descent ended at a present leaf.
func (p *Path) OK() bool { return p.ok }

// LastEntry returns the physical address of the descent's last entry:
// the leaf PTE itself when OK.
func (p *Path) LastEntry() arch.PAddr { return p.ea[p.steps-1] }

// LoadAdjuster reprices one performed PTE load: given its physical
// address and the cache level that served it, it returns a latency delta
// (negative for a faster-than-modelled path, e.g. a DRAM-cache hit).
// Per-walk accounting accumulates in the adjuster's own scratch fields,
// NOT through the Result pointer: passing the Result into this interface
// call would defeat escape analysis and heap-allocate every walk.
type LoadAdjuster interface {
	AdjustLoad(pa arch.PAddr, loc cache.HitLoc) int64
}

// Charge issues a resolved path's PTE loads through the cache hierarchy:
// one Access per step plus stepOverhead, aborting after the load that
// first exceeds budget (that load still touched cache state; later ones
// never issue). Every step the walk descended past feeds the
// paging-structure caches, and each performed load records one trace
// slice. A nil adj charges hierarchy latency unmodified.
//
// Charge accumulates into r's load accounting (cycles continue from
// r.Cycles, so a walk may charge several partial paths against one
// budget) and reports whether the budget aborted the walk. With terminal
// set it also applies the path's terminal outcome: Completed, and
// OK/Frame/Size on a present leaf. A non-terminal call charges a partial
// descent, e.g. the replica prefix a Mitosis walk read before falling
// back to the master table.
//
//atlint:hotpath
func (p *Path) Charge(caches *cache.Hierarchy, psc *mmucache.PSC, va arch.VAddr,
	budget uint64, adj LoadAdjuster, r *Result, trk *telemetry.Track,
	terminal bool) (aborted bool) {
	cycles := r.Cycles
	n := 0
	for i := 0; i < p.steps; i++ {
		lat, loc := caches.Access(p.ea[i])
		if adj != nil {
			if d := adj.AdjustLoad(p.ea[i], loc); d != 0 {
				lat = uint64(int64(lat) + d)
			}
		}
		cycles += lat + stepOverhead
		n++
		r.Locs[loc]++
		r.LeafLoc = loc
		if trk != nil {
			trk.Slice(p.lvls[i].String(), lat+stepOverhead, traceLocArg, locName(loc))
		}
		if cycles > budget {
			break
		}
	}
	r.Cycles = cycles
	r.Loads += n
	r.GuestLoads += n
	for i := 0; i+1 < n; i++ {
		psc.Insert(p.lvls[i], va, p.frames[i])
	}
	if cycles > budget {
		return true // aborted: Completed stays false
	}
	if !terminal {
		return false
	}
	r.Completed = true
	if p.ok {
		r.OK = true
		r.Frame = p.frame
		r.Size = p.leaf.PageSize()
	}
	return false
}

// Trace argument and outcome names (constant strings so recording never
// allocates).
const (
	traceWalk     = "walk"
	traceLocArg   = "loc"
	traceOutcome  = "outcome"
	outcomeOK     = "ok"
	outcomeFault  = "fault"
	outcomeAbort  = "aborted"
	outcomeNoWalk = "ept-violation"
	traceEPTWalk  = "ept walk"
	traceNTLBHit  = "ntlb hit"
	traceProbe    = "probe"
	traceHash     = "hash"
)

// locName returns the timeline argument naming a PTE load's cache
// outcome. The timeline spells memory "DRAM", unlike HitLoc.String.
func locName(loc cache.HitLoc) string {
	switch loc {
	case cache.HitL1:
		return "L1"
	case cache.HitL2:
		return "L2"
	case cache.HitL3:
		return "L3"
	}
	return "DRAM"
}

// TraceBegin opens one walk span on trk (nil-track safe; the clock
// closure is only called when tracing).
func TraceBegin(trk *telemetry.Track, clock func() uint64) {
	if trk != nil {
		trk.Sync(clock())
		trk.Begin(traceWalk)
	}
}

// TraceEnd closes the walk span opened by TraceBegin with r's outcome:
// aborted, fault, or ok (nil-track safe).
func TraceEnd(trk *telemetry.Track, r *Result) {
	switch {
	case !r.Completed:
		trk.EndArg(traceOutcome, outcomeAbort)
	case !r.OK:
		trk.EndArg(traceOutcome, outcomeFault)
	default:
		trk.EndArg(traceOutcome, outcomeOK)
	}
}
