package cache

import (
	"math/rand"
	"testing"

	"atscale/internal/arch"
)

// TestAccessZeroAllocs pins the hierarchy's allocation contract: demand
// accesses and walker PTE loads never touch the heap.
func TestAccessZeroAllocs(t *testing.T) {
	cfg := arch.DefaultSystem()
	h := NewHierarchy(&cfg)
	rng := rand.New(rand.NewSource(1))
	step := func() {
		for i := 0; i < 6; i++ {
			h.Access(arch.PAddr(rng.Uint64() % (1 << 30)))
		}
	}
	for i := 0; i < 100; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(200, step); avg != 0 {
		t.Errorf("Hierarchy access allocates %.2f allocs/op, want 0", avg)
	}
}
