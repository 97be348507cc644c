package machine

import (
	"slices"
	"testing"

	"atscale/internal/arch"
)

// quietState is everything a quiet write can leave behind that a later
// simulated access could observe: the prefault and fault counts, each
// page's frame (which records the order the faults came in), and, when
// asked for, the words of the mapped pages.
type quietState struct {
	prefaults, faults, touched uint64
	frames                     []arch.PAddr
	words                      []uint64
}

func captureQuiet(m *Machine, base arch.VAddr, n uint64, words bool) quietState {
	s := quietState{prefaults: m.prefaults, faults: m.as.Faults(), touched: m.phys.TouchedBytes()}
	for off := uint64(0); off < n; off += arch.Page4K.Bytes() {
		page := base + arch.VAddr(off)
		pa, _, ok := m.as.PageTable().Lookup(page)
		if ok && m.hyp != nil {
			pa, ok = m.hyp.Translate(pa)
		}
		if !ok {
			s.frames = append(s.frames, ^arch.PAddr(0))
			continue // peeking would fault the page in
		}
		s.frames = append(s.frames, pa)
		for w := arch.VAddr(0); words && w < arch.VAddr(arch.Page4K.Bytes()); w += 8 {
			s.words = append(s.words, m.Peek64(page+w))
		}
	}
	return s
}

// TestQuietBatchedWritesMatchPoke64 holds PokeSlice and PokeFill to the
// Poke64 loop they replace, on twin machines: the same words, the same
// prefaults, and every page on the same frame — so the faults came in
// the same order. Starts are unaligned to pages, ranges cross 4 KB and
// 2 MB boundaries, and the nested machine checks host frames.
func TestQuietBatchedWritesMatchPoke64(t *testing.T) {
	builds := []struct {
		name string
		new  func(t *testing.T) *Machine
	}{
		{"native-4k", func(t *testing.T) *Machine { return newNative(t, arch.Page4K) }},
		{"native-2m", func(t *testing.T) *Machine { return newNative(t, arch.Page2M) }},
		{"virt-4k-ept2m", func(t *testing.T) *Machine { return newVirtM(t, arch.Page4K, arch.Page2M) }},
		{"virt-2m-ept4k", func(t *testing.T) *Machine { return newVirtM(t, arch.Page2M, arch.Page4K) }},
	}
	const region = 6 * arch.MB
	wide := make([]uint64, 1500)
	narrow := make([]uint32, 700)
	for i := range wide {
		wide[i] = uint64(i)*0x9E3779B97F4A7C15 + 1
	}
	for i := range narrow {
		narrow[i] = uint32(i)*2654435761 + 7
	}
	// Each op writes at a byte offset into the region, first batched,
	// then as the equivalent Poke64 loop.
	type op struct {
		off     uint64
		batched func(m *Machine, va arch.VAddr)
		looped  func(m *Machine, va arch.VAddr)
	}
	slice64 := func(vals []uint64) (func(*Machine, arch.VAddr), func(*Machine, arch.VAddr)) {
		return func(m *Machine, va arch.VAddr) { PokeSlice(m, va, vals) },
			func(m *Machine, va arch.VAddr) {
				for i, v := range vals {
					m.Poke64(va+arch.VAddr(8*i), v)
				}
			}
	}
	slice32 := func(vals []uint32) (func(*Machine, arch.VAddr), func(*Machine, arch.VAddr)) {
		return func(m *Machine, va arch.VAddr) { PokeSlice(m, va, vals) },
			func(m *Machine, va arch.VAddr) {
				for i, v := range vals {
					m.Poke64(va+arch.VAddr(8*i), uint64(v))
				}
			}
	}
	fill := func(n, v uint64) (func(*Machine, arch.VAddr), func(*Machine, arch.VAddr)) {
		return func(m *Machine, va arch.VAddr) { m.PokeFill(va, n, v) },
			func(m *Machine, va arch.VAddr) {
				for i := uint64(0); i < n; i++ {
					m.Poke64(va+arch.VAddr(8*i), v)
				}
			}
	}
	var ops []op
	add := func(off uint64, b, l func(*Machine, arch.VAddr)) { ops = append(ops, op{off, b, l}) }
	b, l := slice64(wide)
	add(8, b, l)            // unaligned start, crosses three 4 KB pages
	add(2*arch.MB-16, b, l) // crosses a 2 MB boundary
	b, l = slice32(narrow)
	add(5*arch.MB+4088, b, l) // starts on a page's last word
	b, l = fill(3000, ^uint64(0))
	add(3*arch.MB+1024, b, l) // mid-page start, six pages
	b, l = fill(1, 42)
	add(4*arch.MB+4088, b, l) // one word, page end
	b, l = fill(0, 7)
	add(4*arch.MB+8192, b, l) // empty
	b, l = slice64(wide[:0])
	add(4*arch.MB+16384, b, l) // empty
	b, l = fill(512, 0)
	add(8, b, l) // rewrite of mapped pages with zeros
	for _, bd := range builds {
		t.Run(bd.name, func(t *testing.T) {
			batched, looped := bd.new(t), bd.new(t)
			vb, vl := batched.MustMalloc(region), looped.MustMalloc(region)
			if vb != vl {
				t.Fatalf("twin machines allocated %#x and %#x", uint64(vb), uint64(vl))
			}
			for i, o := range ops {
				o.batched(batched, vb+arch.VAddr(o.off))
				o.looped(looped, vl+arch.VAddr(o.off))
				last := i == len(ops)-1
				got, want := captureQuiet(batched, vb, region, last), captureQuiet(looped, vl, region, last)
				if got.prefaults != want.prefaults || got.faults != want.faults || got.touched != want.touched {
					t.Fatalf("op %d: prefaults/faults/touched %d/%d/%d, Poke64 loop %d/%d/%d", i,
						got.prefaults, got.faults, got.touched, want.prefaults, want.faults, want.touched)
				}
				if !slices.Equal(got.frames, want.frames) {
					t.Fatalf("op %d: page frames differ from the Poke64 loop's", i)
				}
				if !slices.Equal(got.words, want.words) {
					t.Fatalf("op %d: words differ from the Poke64 loop's", i)
				}
			}
		})
	}
}

// TestQuietBatchedWritesZeroAllocs gates the batched writes on a
// prefaulted range: a set-up poke allocates nothing on the host.
func TestQuietBatchedWritesZeroAllocs(t *testing.T) {
	m := newNative(t, arch.Page4K)
	vals := make([]uint32, 4096)
	va := m.MustMalloc(8 * uint64(len(vals)))
	PokeSlice(m, va, vals)
	allocs := testing.AllocsPerRun(20, func() {
		PokeSlice(m, va+8, vals[1:])
		m.PokeFill(va, uint64(len(vals)), 7)
	})
	if allocs != 0 {
		t.Errorf("batched quiet writes allocate %.1f times per run, want 0", allocs)
	}
}

func newNative(t *testing.T, ps arch.PageSize) *Machine {
	t.Helper()
	m, err := New(arch.DefaultSystem(), ps, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
