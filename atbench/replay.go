package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"time"

	"atscale/internal/arch"
	"atscale/internal/cache"
	"atscale/internal/tlb"
	"atscale/internal/trace"
	"atscale/internal/workloads"
)

// replayRuns is how many times each replay kernel is timed; the median
// is reported.
const replayRuns = 5

// campaignReplaySpec is the unit whose stream the campaign workload
// replays: Fig 2's cc-urand at the preset's top rung, 4 KB pages.
const campaignReplaySpec = "cc-urand"

// ref is one retired access of a recorded stream, translated.
type ref struct {
	va    arch.VAddr
	pa    arch.PAddr
	pages arch.PageSize
}

// replayResult holds the replay-kernel metrics. The fractions are exact
// and must not move under a layout change; the times are medians.
type replayResult struct {
	tlbNsPerLookup         float64
	cacheNsPerAccess       float64
	tlbMissFrac, l1HitFrac float64
}

// recordStream runs w's measured region once with a trace.Writer
// attached and returns the retired loads and stores it saw, each
// translated through the software page-table walk. Wrong-path accesses
// and the walker's PTE loads are not in the stream.
func recordStream(w workload, seed int64, sp *spans, parent int) ([]ref, arch.SystemConfig, error) {
	sys, name, param, pages := arch.DefaultSystem(), w.spec, w.param, w.pages
	if w.campaign() {
		spec, err := workloads.ByName(campaignReplaySpec)
		if err != nil {
			return nil, sys, err
		}
		sizes := spec.Sizes(w.preset)
		sys, name, param, pages = campaignSystem(), campaignReplaySpec, sizes[len(sizes)-1], arch.Page4K
	}
	spec, err := workloads.ByName(name)
	if err != nil {
		return nil, sys, err
	}
	m, inst, err := buildUnit(sys, spec, param, pages, seed, sp, parent)
	if err != nil {
		return nil, sys, err
	}
	s := sp.begin("replay.record", parent)
	defer sp.end(s)
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	m.SetTracer(tw)
	workloads.RunPhased(m, inst, w.budget)
	m.SetTracer(nil)
	if err := tw.Flush(); err != nil {
		return nil, sys, fmt.Errorf("recording %s: %w", spec.Name(), err)
	}
	r, err := trace.NewReader(&buf)
	if err != nil {
		return nil, sys, err
	}
	pt := m.AddressSpace().PageTable()
	var refs []ref
	for {
		e, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, sys, err
		}
		if e.Kind != trace.KLoad && e.Kind != trace.KStore {
			continue
		}
		va := arch.VAddr(e.A)
		pa, ps, ok := pt.Lookup(va)
		if !ok {
			return nil, sys, fmt.Errorf("recorded %s access %#x is unmapped", spec.Name(), va)
		}
		refs = append(refs, ref{va: va, pa: pa, pages: ps})
	}
	if len(refs) == 0 {
		return nil, sys, fmt.Errorf("recorded no accesses of %s", spec.Name())
	}
	return refs, *m.Config(), nil
}

// replayKernels times tlb.Hierarchy Lookup+Fill and cache.Hierarchy
// Access over refs, each on fresh structures built from sys.
func replayKernels(refs []ref, sys arch.SystemConfig, sp *spans, parent int) replayResult {
	var res replayResult
	n := float64(len(refs))
	var tlbNs, cacheNs []float64
	for i := 0; i < replayRuns; i++ {
		tl := tlb.NewHierarchy(&sys)
		s := sp.begin("tlb.replay", parent)
		t0 := time.Now()
		misses := 0
		for _, r := range refs {
			if tl.Lookup(r.va).Level == tlb.Miss {
				misses++
				tl.Fill(r.va, r.pa&^arch.PAddr(r.pages.Mask()), r.pages)
			}
		}
		tlbNs = append(tlbNs, float64(time.Since(t0).Nanoseconds())/n)
		sp.end(s)
		res.tlbMissFrac = float64(misses) / n

		ch := cache.NewHierarchy(&sys)
		s = sp.begin("cache.replay", parent)
		t0 = time.Now()
		hits := 0
		for _, r := range refs {
			if _, loc := ch.Access(r.pa); loc == cache.HitL1 {
				hits++
			}
		}
		cacheNs = append(cacheNs, float64(time.Since(t0).Nanoseconds())/n)
		sp.end(s)
		res.l1HitFrac = float64(hits) / n
	}
	res.tlbNsPerLookup = median(tlbNs)
	res.cacheNsPerAccess = median(cacheNs)
	return res
}
