package scheme

import (
	"testing"

	"atscale/internal/arch"
	"atscale/internal/cache"
	"atscale/internal/mem"
	"atscale/internal/pagetable"
	"atscale/internal/refute"
	"atscale/internal/walker"
)

// fixture is one scheme instance over a hand-built page table.
type fixture struct {
	cfg  arch.SystemConfig
	phys *mem.Phys
	pt   *pagetable.Table
	inst Instance
}

func newFixture(t *testing.T, name string, mut func(*arch.SystemConfig)) *fixture {
	t.Helper()
	cfg := arch.DefaultSystem()
	cfg.Scheme = name
	if mut != nil {
		mut(&cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	phys := mem.NewPhysNUMA(64*arch.GB, cfg.NUMA.EffectiveNodes())
	pt, err := pagetable.New(phys)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sch.Build(Deps{Cfg: &cfg, Phys: phys, Caches: cache.NewHierarchy(&cfg)})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{cfg: cfg, phys: phys, pt: pt, inst: inst}
}

func (f *fixture) mapPage(t *testing.T, va arch.VAddr, ps arch.PageSize) arch.PAddr {
	t.Helper()
	frame, err := f.phys.AllocPage(ps)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.pt.Map(va, frame, ps); err != nil {
		t.Fatal(err)
	}
	return frame
}

func numa2(c *arch.SystemConfig) { c.NUMA.Nodes = 2 }

func TestRegistry(t *testing.T) {
	want := []string{"radix", "victima", "mitosis", "dramcache"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	//atlint:allow eventname empty name exercising the radix default
	s, err := ByName("")
	if err != nil || s.Name() != "radix" {
		t.Errorf("ByName(\"\") = %v, %v; want radix", s, err)
	}
	//atlint:allow eventname deliberately unknown name exercising the error path
	if _, err := ByName("revelator"); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestSchemeIdentitiesAreGuarded(t *testing.T) {
	ids := AllIdentities()
	if len(ids) == 0 {
		t.Fatal("no scheme identities registered")
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id.Name] {
			t.Errorf("duplicate identity name %s", id.Name)
		}
		seen[id.Name] = true
		// EQ identities must be guarded: they run against units of every
		// scheme in one merged registry, and only hold when the scheme's
		// own counters are live.
		if id.Rel == refute.EQ && len(id.Guards) == 0 {
			t.Errorf("EQ identity %s has no guards", id.Name)
		}
	}
}

func TestMitosisRequiresNUMA(t *testing.T) {
	cfg := arch.DefaultSystem()
	cfg.Scheme = "mitosis"
	sch, _ := ByName("mitosis")
	if _, err := sch.Build(Deps{Cfg: &cfg}); err == nil {
		t.Error("mitosis built on a UMA config")
	}
}

func TestRadixColdWalk4Loads(t *testing.T) {
	f := newFixture(t, "radix", nil)
	va := arch.VAddr(0x7f00_0000_1000)
	frame := f.mapPage(t, va, arch.Page4K)
	r := f.inst.Walk(va, f.pt.Root(), walker.NoBudget)
	if !r.OK || !r.Completed || r.Frame != frame || r.Size != arch.Page4K {
		t.Fatalf("walk = %+v; want frame %#x", r, uint64(frame))
	}
	if r.Loads != 4 {
		t.Errorf("cold 4K walk loads = %d, want 4", r.Loads)
	}
	if r.BlockProbed || r.Replica != walker.ReplicaNone || r.DCHits != 0 || r.DCMisses != 0 {
		t.Errorf("radix walk carries scheme accounting: %+v", r)
	}
}

func TestVictimaBlockHitShortCircuit(t *testing.T) {
	f := newFixture(t, "victima", nil)
	va := arch.VAddr(0x4000_0000)
	va2 := va + 0x1000 // same 2 MB block, same PT page
	frame := f.mapPage(t, va, arch.Page4K)
	frame2 := f.mapPage(t, va2, arch.Page4K)

	r1 := f.inst.Walk(va, f.pt.Root(), walker.NoBudget)
	if !r1.OK || r1.Frame != frame || r1.Loads != 4 {
		t.Fatalf("cold walk = %+v", r1)
	}
	if !r1.BlockProbed || r1.BlockHit {
		t.Fatalf("cold walk block accounting = probed %v hit %v", r1.BlockProbed, r1.BlockHit)
	}
	v := f.inst.(*victima)
	if v.BlockDirLive() != 1 {
		t.Fatalf("block dir live = %d after pressured walk, want 1", v.BlockDirLive())
	}

	r2 := f.inst.Walk(va2, f.pt.Root(), walker.NoBudget)
	if !r2.OK || r2.Frame != frame2 || r2.Size != arch.Page4K {
		t.Fatalf("block-hit walk = %+v; want frame %#x", r2, uint64(frame2))
	}
	if !r2.BlockHit || r2.Loads != 1 {
		t.Errorf("block-hit walk: hit=%v loads=%d, want hit with exactly 1 load", r2.BlockHit, r2.Loads)
	}
}

func TestVictimaBlockHitCanFault(t *testing.T) {
	f := newFixture(t, "victima", nil)
	va := arch.VAddr(0x4000_0000)
	f.mapPage(t, va, arch.Page4K)
	f.inst.Walk(va, f.pt.Root(), walker.NoBudget) // installs the block

	// A block hit locates the PT page, but the neighbouring entry is
	// still non-present: that is a fault, served in one load.
	va2 := va + 0x2000
	r := f.inst.Walk(va2, f.pt.Root(), walker.NoBudget)
	if !r.BlockHit || r.OK || !r.Completed || r.Loads != 1 {
		t.Fatalf("unmapped block-hit walk = %+v; want completed fault in 1 load", r)
	}
	// The post-fault retry hits the block again and now succeeds.
	frame2 := f.mapPage(t, va2, arch.Page4K)
	r = f.inst.Walk(va2, f.pt.Root(), walker.NoBudget)
	if !r.BlockHit || !r.OK || r.Frame != frame2 || r.Loads != 1 {
		t.Fatalf("post-fault retry = %+v; want block-hit success", r)
	}
}

func TestVictimaFlushLeavesNoResidualHits(t *testing.T) {
	f := newFixture(t, "victima", nil)
	va := arch.VAddr(0x4000_0000)
	f.mapPage(t, va, arch.Page4K)
	f.mapPage(t, va+0x1000, arch.Page4K)
	f.inst.Walk(va, f.pt.Root(), walker.NoBudget)
	v := f.inst.(*victima)
	if v.BlockDirLive() == 0 {
		t.Fatal("no block installed")
	}
	f.inst.Flush()
	if v.BlockDirLive() != 0 {
		t.Fatalf("block dir live = %d after full flush, want 0", v.BlockDirLive())
	}
	r := f.inst.Walk(va+0x1000, f.pt.Root(), walker.NoBudget)
	if r.BlockHit {
		t.Error("block hit served from flushed directory")
	}
}

func TestVictimaInvalidateBlock(t *testing.T) {
	f := newFixture(t, "victima", nil)
	va := arch.VAddr(0x4000_0000)
	f.mapPage(t, va, arch.Page4K)
	f.inst.Walk(va, f.pt.Root(), walker.NoBudget)
	f.inst.InvalidateBlock(va)
	if live := f.inst.(*victima).BlockDirLive(); live != 0 {
		t.Errorf("block dir live = %d after InvalidateBlock, want 0", live)
	}
}

func TestMitosisReplicaLocalAndRemote(t *testing.T) {
	f := newFixture(t, "mitosis", numa2)
	w := f.inst.(*numaWalker)
	va := arch.VAddr(0x4000_0000)
	frame := f.mapPage(t, va, arch.Page4K)

	// Node 0 walks the master table, which lives on node 0: local.
	r := f.inst.Walk(va, f.pt.Root(), walker.NoBudget)
	if !r.OK || r.Replica != walker.ReplicaLocal {
		t.Fatalf("node-0 walk = %+v; want replica-local", r)
	}

	// First walk after migrating: no replica yet, so the master walk
	// crosses the interconnect — remote — and installs the replica.
	w.SetNode(1)
	r = f.inst.Walk(va, f.pt.Root(), walker.NoBudget)
	if !r.OK || r.Frame != frame || r.Replica != walker.ReplicaRemote {
		t.Fatalf("first node-1 walk = %+v; want replica-remote", r)
	}
	if !w.ReplicaLive(1) {
		t.Fatal("replica not installed after master-served walk")
	}

	// Once the PSC no longer holds master-path entries (a migration
	// round-trip flushes it), walks descend the node-1 replica whose
	// pages live on node 1: local again.
	w.SetNode(0)
	w.SetNode(1)
	r = f.inst.Walk(va, f.pt.Root(), walker.NoBudget)
	if !r.OK || r.Frame != frame || r.Replica != walker.ReplicaLocal {
		t.Fatalf("replica walk = %+v; want replica-local to frame %#x", r, uint64(frame))
	}
}

func TestMitosisRemoteWalkCostsMore(t *testing.T) {
	f := newFixture(t, "mitosis", numa2)
	w := f.inst.(*numaWalker)
	va := arch.VAddr(0x4000_0000)
	f.mapPage(t, va, arch.Page4K)
	local := f.inst.Walk(va, f.pt.Root(), walker.NoBudget)

	// Same cold-PSC walk of master pages from node 1: every DRAM-served
	// PTE load adds the interconnect penalty.
	f2 := newFixture(t, "mitosis", numa2)
	w2 := f2.inst.(*numaWalker)
	va2 := arch.VAddr(0x4000_0000)
	f2.mapPage(t, va2, arch.Page4K)
	w2.SetNode(1)
	remote := f2.inst.Walk(va2, f2.pt.Root(), walker.NoBudget)

	wantDelta := uint64(4) * f.cfg.NUMA.EffectiveRemoteLatency()
	if remote.Cycles != local.Cycles+wantDelta {
		t.Errorf("remote cold walk = %d cycles, local = %d; want delta %d",
			remote.Cycles, local.Cycles, wantDelta)
	}
	_ = w
}

func TestMitosisReplicaMissFallsBack(t *testing.T) {
	f := newFixture(t, "mitosis", numa2)
	w := f.inst.(*numaWalker)
	va := arch.VAddr(0x4000_0000)
	f.mapPage(t, va, arch.Page4K)
	w.SetNode(1)
	f.inst.Walk(va, f.pt.Root(), walker.NoBudget) // builds node-1 replica

	// A page the replica has never seen: the replica descent dead-ends,
	// the master serves the walk (remote), and the replica syncs.
	va2 := arch.VAddr(0x9000_0000)
	frame2 := f.mapPage(t, va2, arch.Page4K)
	w.SetNode(0)
	w.SetNode(1) // flush PSC so the walk enters via the replica root
	r := f.inst.Walk(va2, f.pt.Root(), walker.NoBudget)
	if !r.OK || r.Frame != frame2 || r.Replica != walker.ReplicaRemote {
		t.Fatalf("replica-miss walk = %+v; want remote fallback to frame %#x", r, uint64(frame2))
	}
	w.SetNode(0)
	w.SetNode(1)
	r = f.inst.Walk(va2, f.pt.Root(), walker.NoBudget)
	if !r.OK || r.Replica != walker.ReplicaLocal {
		t.Fatalf("post-sync walk = %+v; want replica-local", r)
	}
}

func TestNUMABaselineDoesNotClassify(t *testing.T) {
	f := newFixture(t, "radix", numa2)
	w, ok := f.inst.(*numaWalker)
	if !ok {
		t.Fatalf("radix with 2 nodes built %T, want *numaWalker", f.inst)
	}
	if w.replicate {
		t.Fatal("NUMA baseline has replication on")
	}
	va := arch.VAddr(0x4000_0000)
	f.mapPage(t, va, arch.Page4K)
	r := f.inst.Walk(va, f.pt.Root(), walker.NoBudget)
	if !r.OK || r.Replica != walker.ReplicaNone {
		t.Errorf("baseline walk = %+v; want no replica classification", r)
	}
}

func TestDramCacheColdWalkCycles(t *testing.T) {
	f := newFixture(t, "dramcache", nil)
	c := f.inst.(*dramCache)
	va := arch.VAddr(0x4000_0000)
	f.mapPage(t, va, arch.Page4K)

	// Every cold PTE load misses all SRAM levels, probes the stacked
	// die, and misses it: the radix walk's cost plus one tag-check
	// penalty per load.
	r := f.inst.Walk(va, f.pt.Root(), walker.NoBudget)
	if !r.OK || r.Loads != 4 {
		t.Fatalf("cold walk = %+v", r)
	}
	if r.DCMisses != 4 || r.DCHits != 0 {
		t.Fatalf("cold walk stacked-die accounting: hits=%d misses=%d, want 0/4", r.DCHits, r.DCMisses)
	}
	if r.Locs[cache.HitMem] != 4 {
		t.Fatalf("cold walk locs = %v, want every load served by memory", r.Locs)
	}
	rf := newFixture(t, "radix", nil)
	rf.mapPage(t, va, arch.Page4K)
	radix := rf.inst.Walk(va, rf.pt.Root(), walker.NoBudget)
	want := radix.Cycles + 4*c.missPen
	if r.Cycles != want {
		t.Errorf("cold walk cycles = %d, want %d", r.Cycles, want)
	}
}

func TestDramCacheHitReprices(t *testing.T) {
	f := newFixture(t, "dramcache", nil)
	c := f.inst.(*dramCache)
	pa := arch.PAddr(0x1234_5000)
	if d := c.AdjustLoad(pa, cache.HitMem); d != int64(c.missPen) {
		t.Errorf("first probe delta = %d, want miss penalty %d", d, c.missPen)
	}
	if d := c.AdjustLoad(pa, cache.HitMem); d != int64(c.hitLat)-int64(c.dram) {
		t.Errorf("second probe delta = %d, want %d", d, int64(c.hitLat)-int64(c.dram))
	}
	if c.dcHits != 1 || c.dcMisses != 1 {
		t.Errorf("accounting = %d/%d, want 1 hit 1 miss", c.dcHits, c.dcMisses)
	}
	// SRAM-served loads never probe the die.
	if d := c.AdjustLoad(pa, cache.HitL2); d != 0 || c.dcHits != 1 {
		t.Errorf("SRAM-served load probed the die (delta %d, hits %d)", d, c.dcHits)
	}
}

func TestDramCacheSurvivesFlush(t *testing.T) {
	f := newFixture(t, "dramcache", nil)
	c := f.inst.(*dramCache)
	va := arch.VAddr(0x4000_0000)
	f.mapPage(t, va, arch.Page4K)
	f.inst.Walk(va, f.pt.Root(), walker.NoBudget)
	if c.TagsLive() == 0 {
		t.Fatal("cold walk filled no stacked-die tags")
	}
	live := c.TagsLive()
	f.inst.Flush()
	if c.TagsLive() != live {
		t.Errorf("tags live %d -> %d across Flush; physically-indexed contents must survive", live, c.TagsLive())
	}
	c.Reset()
	if c.TagsLive() != 0 {
		t.Errorf("tags live = %d after Reset, want 0", c.TagsLive())
	}
}

// TestWalkPathZeroAllocs gates the steady-state translate path of every
// scheme at zero heap allocations per walk.
func TestWalkPathZeroAllocs(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			var mut func(*arch.SystemConfig)
			if name == "mitosis" {
				mut = numa2
			}
			f := newFixture(t, name, mut)
			va := arch.VAddr(0x4000_0000)
			f.mapPage(t, va, arch.Page4K)
			root := f.pt.Root()
			f.inst.Walk(va, root, walker.NoBudget) // warm structures
			if n := testing.AllocsPerRun(200, func() {
				f.inst.Walk(va, root, walker.NoBudget)
			}); n != 0 {
				t.Errorf("%s Walk allocates %.1f per run, want 0", name, n)
			}
		})
	}
}

func TestSchemeReset(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			var mut func(*arch.SystemConfig)
			if name == "mitosis" {
				mut = numa2
			}
			f := newFixture(t, name, mut)
			va := arch.VAddr(0x4000_0000)
			f.mapPage(t, va, arch.Page4K)
			r1 := f.inst.Walk(va, f.pt.Root(), walker.NoBudget)
			f.inst.Reset()
			r2 := f.inst.Walk(va, f.pt.Root(), walker.NoBudget)
			// After Reset the instance must behave as freshly built with
			// respect to its own structures (the shared data caches are
			// warmer, so only structural accounting is comparable).
			if r1.Loads != r2.Loads || r1.BlockHit != r2.BlockHit {
				t.Errorf("post-Reset walk differs structurally: %+v vs %+v", r1, r2)
			}
		})
	}
}
