package cpu

import (
	"testing"

	"atscale/internal/arch"
	"atscale/internal/cache"
	"atscale/internal/mem"
	"atscale/internal/mmucache"
	"atscale/internal/tlb"
	"atscale/internal/walker"
)

// TestResetZeroAllocs pins Core.Reset's allocation contract: a pooled
// machine's per-unit reset reseeds the speculation RNG in place and
// clears the TLB and cache arrays without touching the heap.
func TestResetZeroAllocs(t *testing.T) {
	cfg := arch.DefaultSystem()
	caches := cache.NewHierarchy(&cfg)
	w := walker.New(mem.NewPhys(cfg.PhysMemBytes), mmucache.New(cfg.PSC), caches)
	c := New(&cfg, tlb.NewHierarchy(&cfg), caches, w, 1)
	seed := int64(0)
	if avg := testing.AllocsPerRun(20, func() { seed++; c.Reset(seed) }); avg != 0 {
		t.Errorf("Core.Reset allocates %.2f allocs/op, want 0", avg)
	}
}
