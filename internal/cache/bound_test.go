package cache_test

import (
	"fmt"
	"math/rand"
	"testing"

	"atscale/internal/arch"
	"atscale/internal/cache"
	"atscale/internal/machine"
)

// TestTopLineTags builds the largest PhysMemBytes Validate accepts for
// the default geometry and checks that the top line is tagged exactly:
// it misses, then hits, and never aliases a line of the same set with a
// small tag. One byte more is rejected.
func TestTopLineTags(t *testing.T) {
	cfg := arch.DefaultSystem()
	cfg.PhysMemBytes = ^uint64(0)
	for _, g := range []arch.CacheGeometry{cfg.L1D, cfg.L2, cfg.L3} {
		limit := (arch.MaxCacheTag + 1) * uint64(g.Sets()) * arch.CacheLineSize
		cfg.PhysMemBytes = min(cfg.PhysMemBytes, limit)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("largest tag-safe PhysMemBytes %d rejected: %v", cfg.PhysMemBytes, err)
	}
	over := cfg
	over.PhysMemBytes++
	if err := over.Validate(); err == nil {
		t.Fatalf("PhysMemBytes %d accepted, one past the 32-bit tag bound", over.PhysMemBytes)
	}

	h := cache.NewHierarchy(&cfg)
	top := arch.PAddr(cfg.PhysMemBytes - arch.CacheLineSize)
	if _, loc := h.Access(top); loc != cache.HitMem {
		t.Fatalf("cold top line: %v, want Memory", loc)
	}
	if _, loc := h.Access(top); loc != cache.HitL1 {
		t.Fatalf("warm top line: %v, want L1", loc)
	}
	// Same L1 set, tag 0: a truncated tag would alias the two.
	sets := uint64(cfg.L1D.Sets())
	low := arch.PAddr(uint64(top) / arch.CacheLineSize % sets * arch.CacheLineSize)
	if _, loc := h.Access(low); loc != cache.HitMem {
		t.Fatalf("low line of the top line's set: %v, want Memory", loc)
	}
	if _, loc := h.Access(top); loc != cache.HitL1 {
		t.Fatalf("top line after a same-set fill: %v, want L1", loc)
	}
}

// TestCallersStayBelowPhysMem runs a random load/store mix that fills
// most of a small physical memory under every translation path —
// radix, NUMA, Victima, Mitosis, the DRAM cache, hashed page tables and
// nested paging — with the hierarchy's PhysMemBytes bound armed (see
// armbound_test.go): any walker, scheme or virtualization layer that hands
// the cache a physical address at or above PhysMemBytes panics here.
func TestCallersStayBelowPhysMem(t *testing.T) {
	base := arch.DefaultSystem()
	base.PhysMemBytes = arch.GB
	configs := map[string]func(*arch.SystemConfig){
		"radix":     func(*arch.SystemConfig) {},
		"victima":   func(c *arch.SystemConfig) { c.Scheme = "victima" },
		"dramcache": func(c *arch.SystemConfig) { c.Scheme = "dramcache" },
		"hashed":    func(c *arch.SystemConfig) { c.PageTable = "hashed" },
		"numa2": func(c *arch.SystemConfig) {
			c.PhysMemBytes, c.NUMA.Nodes, c.NUMA.MigrateEvery = 2*arch.GB, 2, 5000
		},
		"mitosis": func(c *arch.SystemConfig) {
			c.Scheme, c.PhysMemBytes, c.NUMA.Nodes, c.NUMA.MigrateEvery = "mitosis", 2*arch.GB, 2, 5000
		},
		"virt": func(c *arch.SystemConfig) { c.Virt = arch.DefaultVirt() },
	}
	for name, edit := range configs {
		for _, ps := range []arch.PageSize{arch.Page4K, arch.Page2M} {
			cfg := base
			edit(&cfg)
			if cfg.PageTable == "hashed" && ps != arch.Page4K {
				continue // hashed page tables map 4 KB pages only
			}
			t.Run(fmt.Sprintf("%s/%s", name, ps), func(t *testing.T) {
				m, err := machine.New(cfg, ps, 1)
				if err != nil {
					t.Fatal(err)
				}
				// Three quarters of one node's memory, every page touched
				// in order so frames are handed out up towards the top;
				// page tables, replicas and EPT structures take the rest.
				size := cfg.PhysMemBytes / uint64(cfg.NUMA.EffectiveNodes()) * 3 / 4
				va := m.MustMalloc(size)
				// Loads fault frames in without backing them with host
				// memory; the few stores keep the store path covered.
				for off := uint64(0); off < size; off += ps.Bytes() {
					m.Load64(va + arch.VAddr(off))
				}
				rng := rand.New(rand.NewSource(2))
				for i := 0; i < 40000; i++ {
					off := arch.VAddr(rng.Uint64() % (size / 8) * 8)
					if i%64 == 0 {
						m.Store64(va+off, uint64(i))
					} else {
						m.Load64(va + off)
					}
				}
			})
		}
	}
}
