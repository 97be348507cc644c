package cache

import (
	"testing"

	"atscale/internal/arch"
)

func BenchmarkAccessHot(b *testing.B) {
	cfg := arch.DefaultSystem()
	h := NewHierarchy(&cfg)
	h.Access(0x1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(0x1000)
	}
}

func BenchmarkAccessStreaming(b *testing.B) {
	cfg := arch.DefaultSystem()
	h := NewHierarchy(&cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(arch.PAddr(uint64(i) * 64))
	}
}

func BenchmarkAccessThrashL3(b *testing.B) {
	cfg := arch.DefaultSystem()
	h := NewHierarchy(&cfg)
	// 2x the L3 working set, random-ish stride.
	lines := uint64(2 * cfg.L3.SizeBytes / 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(arch.PAddr((uint64(i) * 0x9E3779B9 % lines) * 64))
	}
}

// benchResident times random accesses to a working set of the given
// size, after warming it in.
func benchResident(b *testing.B, bytes uint64) {
	cfg := arch.DefaultSystem()
	h := NewHierarchy(&cfg)
	lines := bytes / arch.CacheLineSize
	x := uint64(0x9E3779B97F4A7C15)
	next := func() arch.PAddr {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return arch.PAddr(x % lines * arch.CacheLineSize)
	}
	for i := uint64(0); i < 4*lines; i++ {
		h.Access(next())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(next())
	}
}

// BenchmarkAccessL1Resident draws random lines from a 16 KB working set,
// so nearly every access hits L1 on a way that is not necessarily the
// most recent: the general L1-hit path, where BenchmarkAccessHot's
// repeated line takes the repeat-access shortcut.
func BenchmarkAccessL1Resident(b *testing.B) { benchResident(b, 16*arch.KB) }

// BenchmarkAccessL3Resident draws random lines from an 8 MB working set:
// larger than the L2 model, smaller than the L3 model, so nearly every
// access misses L1 and L2 and hits L3 — the dominant case of a
// graph-traversal workload's data and PTE loads.
func BenchmarkAccessL3Resident(b *testing.B) { benchResident(b, 8*arch.MB) }
