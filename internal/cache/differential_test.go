package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"atscale/internal/arch"
)

// diffGeoms spans the layouts the set-block storage has to get right:
// power-of-two and reciprocal-division set counts, odd ways (a padding
// tag half), multi-word recency state, a single set, the largest
// associativity, and Table III's 24576x20 L3.
var diffGeoms = []struct{ sets, ways int }{
	{16, 4},
	{3, 4},
	{6, 5},
	{1, 16},
	{7, 9},
	{2, arch.MaxCacheWays},
	{24576, 20},
}

// diffLines draws the stream's line universe: per touched set, about
// twice its ways in distinct tags, some at the top of the tag range so
// the 32-bit tag path is exercised end to end.
func diffLines(rng *rand.Rand, sets, ways int) []uint64 {
	touched := min(sets, 6)
	var lines []uint64
	for i := 0; i < touched; i++ {
		set := uint64(rng.Intn(sets))
		for k := 0; k < 2*ways+2; k++ {
			tag := uint64(k)
			if k%5 == 4 {
				tag = arch.MaxCacheTag - uint64(k)
			}
			lines = append(lines, tag*uint64(sets)+set)
		}
	}
	return lines
}

// TestCacheMatchesReference replays random Lookup/Fill/Invalidate/Reset
// streams through the production cache and the previous layout
// (refCache) for every policy and geometry, requiring the same hit/miss
// result after every operation and the same contents throughout.
func TestCacheMatchesReference(t *testing.T) {
	policies := []arch.ReplacementPolicy{arch.ReplaceLRU, arch.ReplaceNRU, arch.ReplaceRandom}
	for _, p := range policies {
		for _, g := range diffGeoms {
			t.Run(fmt.Sprintf("%s/%dx%d", p, g.sets, g.ways), func(t *testing.T) {
				geom := arch.CacheGeometry{
					SizeBytes: g.sets * g.ways * arch.CacheLineSize, Ways: g.ways,
					Latency: 4, Replacement: p,
				}
				c, ref := New(geom), newRefCache(geom)
				rng := rand.New(rand.NewSource(int64(g.sets*131 + g.ways)))
				lines := diffLines(rng, g.sets, g.ways)
				ops := 60000
				if testing.Short() {
					ops = 10000
				}
				for op := 0; op < ops; op++ {
					line := lines[rng.Intn(len(lines))]
					var got, want bool
					switch r := rng.Intn(1000); {
					case r < 400:
						got, want = c.Lookup(line), ref.Lookup(line)
					case r < 800:
						c.Fill(line)
						ref.Fill(line)
						got, want = true, true
					case r < 999:
						c.Invalidate(line)
						ref.Invalidate(line)
					default:
						c.Reset()
						ref.Reset()
					}
					if got != want {
						t.Fatalf("op %d: line %#x hit=%v, reference %v", op, line, got, want)
					}
					if c.Contains(line) != ref.Contains(line) {
						t.Fatalf("op %d: Contains(%#x) = %v, reference %v", op, line, c.Contains(line), ref.Contains(line))
					}
					if op%512 == 0 {
						for _, l := range lines {
							if c.Contains(l) != ref.Contains(l) {
								t.Fatalf("op %d: Contains(%#x) = %v, reference %v", op, l, c.Contains(l), ref.Contains(l))
							}
						}
					}
				}
			})
		}
	}
}

// TestHierarchyMatchesReference replays a mixed-locality PA stream
// through the production hierarchy and the previous one, requiring the
// same latency and hit level for every access, for each policy.
func TestHierarchyMatchesReference(t *testing.T) {
	for _, p := range []arch.ReplacementPolicy{arch.ReplaceLRU, arch.ReplaceNRU, arch.ReplaceRandom} {
		t.Run(string(p), func(t *testing.T) {
			cfg := arch.DefaultSystem()
			cfg.L1D.Replacement, cfg.L2.Replacement, cfg.L3.Replacement = p, p, p
			h, ref := NewHierarchy(&cfg), newRefHierarchy(&cfg)
			rng := rand.New(rand.NewSource(9))
			n := 400000
			if testing.Short() {
				n = 50000
			}
			var pa uint64
			for i := 0; i < n; i++ {
				switch rng.Intn(5) {
				case 0: // the previous line again
					pa ^= rng.Uint64() % 64
				case 1: // hot 16 KB
					pa = rng.Uint64() % (16 * arch.KB)
				case 2: // L3-sized 24 MB
					pa = rng.Uint64() % (24 * arch.MB)
				default: // beyond L3
					pa = rng.Uint64() % (cfg.PhysMemBytes)
				}
				lat, loc := h.Access(arch.PAddr(pa))
				wlat, wloc := ref.Access(arch.PAddr(pa))
				if lat != wlat || loc != wloc {
					t.Fatalf("access %d (PA %#x): %d,%v, reference %d,%v", i, pa, lat, loc, wlat, wloc)
				}
				if rng.Intn(64) == 0 { // drop the line just loaded from one level
					line := pa >> 6
					switch rng.Intn(3) {
					case 0:
						h.L1().Invalidate(line)
						ref.l1.Invalidate(line)
					case 1:
						h.L2().Invalidate(line)
						ref.l2.Invalidate(line)
					default:
						h.L3().Invalidate(line)
						ref.l3.Invalidate(line)
					}
				}
				if i%100000 == 99999 {
					h.Reset()
					ref.l1.Reset()
					ref.l2.Reset()
					ref.l3.Reset()
				}
			}
		})
	}
}
