package walker

import (
	"atscale/internal/arch"
	"atscale/internal/cache"
	"atscale/internal/mem"
	"atscale/internal/mmucache"
	"atscale/internal/pagetable"
	"atscale/internal/telemetry"
)

// Nested is the two-dimensional hardware walker of a machine running
// under nested paging: the guest page table's pages live at
// guest-physical addresses, so resolving each guest level first requires
// the host address of that level's table page — an EPT translation,
// served by the nTLB or by a full EPT walk — and the walk finishes with
// one more EPT translation for the data page itself. Worst case for a
// 4 KB guest walk over a 4 KB EPT that is 4 guest PTE loads plus 5 EPT
// walks of 4 loads each: 24 loads, versus the native walker's 4.
//
// Every load in both dimensions goes through the shared cache hierarchy,
// so the paper's filtering effect — and Patil-style "where do PTE loads
// land" attribution — is observable per dimension: guest-dimension loads
// land in Result.Locs, EPT-dimension loads in Result.EPTLocs.
type Nested struct {
	phys    *mem.Phys // host physical memory (all PTE bytes live here)
	eptRoot arch.PAddr
	eptLeaf arch.Level // leaf level of the EPT mapping policy
	nc      *mmucache.Nested
	caches  *cache.Hierarchy

	// gtrk/etrk, when non-nil, are the guest-dimension and EPT-dimension
	// timeline sub-tracks: guest walks span gtrk with one slice per
	// guest PTE load; every EPT walk spans etrk with one slice per EPT
	// entry load. The two tracks cross-sync so the dimensions interleave
	// in walk order. clock supplies the shared simulated-cycle clock.
	//
	//atlint:noreset trace attachment is session state owned by SetTrace; Flush models a TLB flush, not object recycling
	gtrk, etrk *telemetry.Track
	//atlint:noreset paired with gtrk/etrk: the timestamp source lives and dies with the trace attachment
	clock func() uint64
}

// eptOutcome maps a failed EPT translation to the guest walk span's
// outcome argument.
func eptOutcome(st eptStatus) string {
	if st == eptViolation {
		return outcomeNoWalk
	}
	return outcomeAbort
}

// eptStatus reports how an EPT translation inside a nested walk ended.
type eptStatus uint8

const (
	eptOK        eptStatus = iota // translation resolved
	eptAborted                    // cycle budget exhausted mid-EPT-walk
	eptViolation                  // gPA unmapped in the EPT
)

// NewNested builds the 2D walker: guest walks resolve against a guest
// table rooted at the (guest-physical) CR3 passed to Walk, and every
// guest-physical access resolves through the EPT rooted at eptRoot,
// whose leaves are all of size eptPages.
func NewNested(phys *mem.Phys, eptRoot arch.PAddr, eptPages arch.PageSize, nc *mmucache.Nested, caches *cache.Hierarchy) *Nested {
	return &Nested{
		phys:    phys,
		eptRoot: eptRoot,
		eptLeaf: eptPages.LeafLevel(),
		nc:      nc,
		caches:  caches,
	}
}

// SetTrace attaches the guest and EPT timeline sub-tracks. clock
// supplies simulated-cycle timestamps for walk starts.
func (w *Nested) SetTrace(guest, ept *telemetry.Track, clock func() uint64) {
	w.gtrk, w.etrk, w.clock = guest, ept, clock
}

// Flush implements Engine. For a nested walker, Flush is the guest
// context switch: guest-dimension PSCs drop, but the EPT PSCs and nTLB —
// tagged by guest-physical addresses under an unchanged EPTP — stay
// warm. That persistence is the EPT-sharing benefit multi-tenant sweeps
// measure. Use FlushAll for an EPTP change.
func (w *Nested) Flush() { w.nc.FlushGuest() }

// FlushAll drops both dimensions (EPTP change / INVEPT).
func (w *Nested) FlushAll() { w.nc.Flush() }

// InvalidateBlock implements Engine (guest-dimension PDE shootdown).
func (w *Nested) InvalidateBlock(va arch.VAddr) {
	w.nc.Guest.InvalidatePrefix(arch.LevelPD, va)
}

// eptTranslate resolves a guest-physical address to its backing host
// frame: nTLB first, then an EPT walk whose entry loads go through the
// cache hierarchy and whose skips come from the EPT PSCs. On success it
// returns the host frame base and the EPT mapping size covering gpa.
func (w *Nested) eptTranslate(gpa arch.PAddr, r *Result, budget uint64) (arch.PAddr, arch.PageSize, eptStatus) {
	if hbase, size, ok := w.nc.NTLB.Lookup(gpa); ok {
		r.NTLBHits++
		if w.etrk != nil {
			w.etrk.Sync(w.gtrk.Now())
			w.etrk.Instant(traceNTLBHit)
		}
		return hbase, size, eptOK
	}
	r.NTLBMisses++
	if w.etrk != nil {
		// The EPT dimension runs while the guest dimension is stalled:
		// pull the EPT track up to guest time, walk, and (in Walk) pull
		// the guest track back up to EPT time.
		w.etrk.Sync(w.gtrk.Now())
		w.etrk.Begin(traceEPTWalk)
	}
	// The EPT is a radix table whose input address is the guest-physical
	// address; reuse the virtual-address slicing machinery on it.
	gva := arch.VAddr(gpa)
	level, base := w.nc.EPT.LookupDeepest(gva, w.eptLeaf, w.eptRoot)
	for {
		a := pagetable.EntryAddr(base, level, gva)
		lat, loc := w.caches.Access(a)
		r.Cycles += lat + stepOverhead
		r.EPTCycles += lat + stepOverhead
		r.Loads++
		r.EPTLoads++
		r.EPTLocs[loc]++
		if w.etrk != nil {
			w.etrk.Slice(level.String(), lat+stepOverhead, traceLocArg, locName(loc))
		}
		if r.Cycles > budget {
			w.etrk.EndArg(traceOutcome, outcomeAbort)
			return 0, 0, eptAborted
		}
		e := pagetable.PTE(w.phys.Read64(a))
		if !e.Present() {
			w.etrk.EndArg(traceOutcome, outcomeNoWalk)
			return 0, 0, eptViolation
		}
		if e.IsLeaf(level) {
			size := level.PageSize()
			w.nc.NTLB.Insert(arch.PAddr(arch.PageBase(gva, size)), e.Frame(), size)
			r.EPTWalks++
			w.etrk.EndArg(traceOutcome, outcomeOK)
			return e.Frame(), size, eptOK
		}
		w.nc.EPT.Insert(level, gva, e.Frame())
		base = e.Frame()
		level--
	}
}

// Walk implements Engine: the full gVA -> hPA nested walk. cr3 is the
// guest page table root, a guest-physical address.
func (w *Nested) Walk(va arch.VAddr, cr3 arch.PAddr, budget uint64) Result {
	var r Result
	if w.gtrk != nil {
		w.gtrk.Sync(w.clock())
		w.gtrk.Begin(traceWalk)
	}
	level, base := w.nc.Guest.LookupDeepest(va, arch.LevelPT, cr3)
	r.GuestPSCHit = level != w.nc.Guest.Top()
	for {
		// Host address of the guest entry: one EPT translation per
		// guest step.
		entryGPA := pagetable.EntryAddr(base, level, va)
		hbase, esize, st := w.eptTranslate(entryGPA, &r, budget)
		if w.gtrk != nil {
			w.gtrk.Sync(w.etrk.Now()) // EPT-dimension time elapsed first
		}
		if st != eptOK {
			r.Completed = st == eptViolation
			w.gtrk.EndArg(traceOutcome, eptOutcome(st))
			return r
		}
		hpa := hbase + arch.PAddr(uint64(entryGPA)&esize.Mask())

		// The guest-dimension PTE load itself.
		lat, loc := w.caches.Access(hpa)
		r.Cycles += lat + stepOverhead
		r.Loads++
		r.GuestLoads++
		r.Locs[loc]++
		r.LeafLoc = loc
		if w.gtrk != nil {
			w.gtrk.Slice(level.String(), lat+stepOverhead, traceLocArg, locName(loc))
		}
		if r.Cycles > budget {
			w.gtrk.EndArg(traceOutcome, outcomeAbort)
			return r // aborted: Completed stays false
		}
		e := pagetable.PTE(w.phys.Read64(hpa))
		if !e.Present() {
			r.Completed = true
			w.gtrk.EndArg(traceOutcome, outcomeFault)
			return r // guest page fault
		}
		if e.IsLeaf(level) {
			gsize := level.PageSize()
			gframe := e.Frame()
			// Final dimension crossing: translate the data page's
			// guest-physical address.
			dataGPA := gframe + arch.PAddr(uint64(va)&gsize.Mask())
			dbase, dsize, st := w.eptTranslate(dataGPA, &r, budget)
			if w.gtrk != nil {
				w.gtrk.Sync(w.etrk.Now())
			}
			if st != eptOK {
				r.Completed = st == eptViolation
				w.gtrk.EndArg(traceOutcome, eptOutcome(st))
				return r
			}
			// The combined translation is linear only over the smaller
			// of the two mapping sizes, so that is the granularity the
			// TLBs may cache (hardware TLBs under nested paging behave
			// the same way).
			eff := gsize
			if dsize < eff {
				eff = dsize
			}
			effBase := arch.PageBase(va, eff)
			gpaBase := gframe + arch.PAddr(uint64(effBase)-uint64(arch.PageBase(va, gsize)))
			r.Frame = dbase + arch.PAddr(uint64(gpaBase)&dsize.Mask())
			r.Size = eff
			r.OK = true
			r.Completed = true
			w.gtrk.EndArg(traceOutcome, outcomeOK)
			return r
		}
		w.nc.Guest.Insert(level, va, e.Frame())
		base = e.Frame() // guest-physical base of the next guest table
		level--
	}
}
