package tlb

import (
	"fmt"
	"math/rand"
	"testing"

	"atscale/internal/arch"
)

// TestTLBMatchesReference replays random Lookup/Insert/InvalidatePage/
// Flush/Reset streams through the production TLB and the previous layout
// (refTLB), requiring the same hit/miss result and returned Entry for
// every lookup and the same Live count after every operation. The
// geometries cover power-of-two and modulo set counts, a fully
// associative array, a disabled one, and multi-size STLBs.
func TestTLBMatchesReference(t *testing.T) {
	all := []arch.PageSize{arch.Page4K, arch.Page2M, arch.Page1G}
	cases := []struct {
		geom  arch.TLBGeometry
		sizes []arch.PageSize
	}{
		{arch.TLBGeometry{Entries: 64, Ways: 4}, []arch.PageSize{arch.Page4K}},
		{arch.TLBGeometry{Entries: 4, Ways: 4}, []arch.PageSize{arch.Page1G}},
		{arch.TLBGeometry{Entries: 1024, Ways: 8}, []arch.PageSize{arch.Page4K, arch.Page2M}},
		{arch.TLBGeometry{Entries: 1536, Ways: 16}, all},
		{arch.TLBGeometry{Entries: 48, Ways: 4}, []arch.PageSize{arch.Page2M, arch.Page1G}},
		{arch.TLBGeometry{Entries: 0, Ways: 4}, []arch.PageSize{arch.Page4K}},
	}
	for ci, tc := range cases {
		t.Run(fmt.Sprintf("%dx%d/%v", tc.geom.Entries, tc.geom.Ways, tc.sizes), func(t *testing.T) {
			tl, ref := New(tc.geom, tc.sizes...), newRefTLB(tc.geom, tc.sizes...)
			rng := rand.New(rand.NewSource(int64(40 + ci)))
			// VAs cluster in a few GB so the sizes alias each other's
			// sets and pages recur often enough to hit.
			va := func() arch.VAddr {
				return arch.VAddr(rng.Int63n(4*arch.GB)) &^ 0xfff
			}
			pages := make([]arch.VAddr, 3*max(tc.geom.Entries, 16))
			for i := range pages {
				pages[i] = va()
			}
			ops := 100000
			if testing.Short() {
				ops = 20000
			}
			for op := 0; op < ops; op++ {
				v := pages[rng.Intn(len(pages))] | arch.VAddr(rng.Intn(4096))
				ps := all[rng.Intn(len(all))]
				switch r := rng.Intn(1000); {
				case r < 500:
					got, ok := tl.Lookup(v)
					want, wok := ref.Lookup(v)
					if got != want || ok != wok {
						t.Fatalf("op %d: Lookup(%#x) = %+v,%v, reference %+v,%v", op, v, got, ok, want, wok)
					}
				case r < 900:
					frame := arch.PAddr(rng.Int63n(64*arch.GB)) &^ arch.PAddr(ps.Bytes()-1)
					tl.Insert(v, frame, ps)
					ref.Insert(v, frame, ps)
				case r < 995:
					tl.InvalidatePage(v, ps)
					ref.InvalidatePage(v, ps)
				case r < 998:
					tl.Flush()
					ref.Flush()
				default:
					tl.Reset()
					ref.Reset()
				}
				if tl.Live() != ref.Live() {
					t.Fatalf("op %d: Live = %d, reference %d", op, tl.Live(), ref.Live())
				}
			}
		})
	}
}

// TestHierarchyMatchesReference drives the production TLB hierarchy and
// one assembled from refTLB arrays the same way, with the STLB holding
// 1 GB translations too, and requires identical lookup results.
func TestHierarchyMatchesReference(t *testing.T) {
	cfg := arch.DefaultSystem()
	cfg.STLBHolds1G = true
	h := NewHierarchy(&cfg)
	var refL1 [arch.NumPageSizes]*refTLB
	for ps := arch.Page4K; ps < arch.NumPageSizes; ps++ {
		refL1[ps] = newRefTLB(cfg.L1TLB[ps], ps)
	}
	refSTLB := newRefTLB(cfg.STLB, arch.Page4K, arch.Page2M, arch.Page1G)
	refLookup := func(va arch.VAddr) Result {
		for ps := arch.Page4K; ps < arch.NumPageSizes; ps++ {
			if e, ok := refL1[ps].Lookup(va); ok {
				return Result{Level: HitL1, Entry: e}
			}
		}
		if e, ok := refSTLB.Lookup(va); ok {
			refL1[e.Size].Insert(va, e.Frame, e.Size)
			return Result{Level: HitSTLB, Entry: e}
		}
		return Result{Level: Miss}
	}
	rng := rand.New(rand.NewSource(5))
	sizes := []arch.PageSize{arch.Page4K, arch.Page4K, arch.Page2M, arch.Page1G}
	for op := 0; op < 200000; op++ {
		va := arch.VAddr(rng.Int63n(16 * arch.GB))
		got, want := h.Lookup(va), refLookup(va)
		if got != want {
			t.Fatalf("op %d: Lookup(%#x) = %+v, reference %+v", op, va, got, want)
		}
		if got.Level == Miss {
			ps := sizes[rng.Intn(len(sizes))]
			frame := arch.PAddr(uint64(va)&^(ps.Bytes()-1)) + arch.GB
			h.Fill(va, frame, ps)
			refL1[ps].Insert(va, frame, ps)
			refSTLB.Insert(va, frame, ps)
		}
	}
}
