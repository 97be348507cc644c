package main

import (
	"fmt"
	"runtime"
	"time"

	"atscale/internal/arch"
	"atscale/internal/core"
	"atscale/internal/machine"
	"atscale/internal/perf"
	"atscale/internal/refute"
	"atscale/internal/workloads"
	_ "atscale/internal/workloads/all" // register every workload
)

// workload is one named benchmark workload. A single-unit workload runs
// one (spec, rung, page size) measured region per iteration; a campaign
// workload runs core.Fig1 on a fresh session per iteration.
type workload struct {
	name string
	// spec, param and pages select the single unit (empty spec: campaign).
	spec  string
	param uint64
	pages arch.PageSize
	// budget is the retired-access budget of one measured region.
	budget uint64
	// preset is the campaign's ladder preset.
	preset workloads.SizePreset
}

func (w *workload) campaign() bool { return w.spec == "" }

// benchWorkloads are the workloads BENCHMARK.json names. NOTES.md says
// why each exists, and why the translation-bound gups-4k is not one.
var benchWorkloads = []workload{
	{name: "bfs-2m", spec: "bfs-urand", param: 18, pages: arch.Page2M, budget: 2_000_000},
	{name: "fig1-campaign", budget: 400_000, preset: workloads.Tiny},
}

func workloadByName(name string) (workload, error) {
	for _, w := range benchWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// campaignParallelism is the Fig 1 session's worker count: the two host
// cores the benchmark is specified for.
const campaignParallelism = 2

// campaignSystem is the machine every campaign unit runs on: core.Run
// raises physical memory to 256 GB for synthetic footprints.
func campaignSystem() arch.SystemConfig {
	sys := arch.DefaultSystem()
	sys.PhysMemBytes = 256 * arch.GB
	return sys
}

// pmu is the exact simulated-PMU view of one iteration: the bases of
// the per-layer ratios, identical across runs of one seed.
type pmu struct {
	stlbHits, walks, walkerLoads, walkerLoadsDRAM uint64
	retiredWalks, flushes, accesses, pageFaults   uint64
	units                                         uint64
}

func pmuOf(d perf.Counters) pmu {
	o := perf.Outcomes(d)
	m := perf.Compute(d)
	return pmu{
		stlbHits:        d.Get(perf.DTLBLoadSTLBHit) + d.Get(perf.DTLBStoreSTLBHit),
		walks:           o.Initiated,
		walkerLoads:     m.WalkerLoads,
		walkerLoadsDRAM: d.Get(perf.WalkerLoadsMem),
		retiredWalks:    o.Retired,
		flushes:         d.Get(perf.BranchMispredicts) + d.Get(perf.MachineClears),
		accesses:        m.Accesses,
		pageFaults:      d.Get(perf.PageFaults),
		units:           1,
	}
}

// iteration is the outcome of one measured iteration.
type iteration struct {
	wall, cpu time.Duration
	allocMB   float64
	// steadyCPU is the thread CPU time of RunPhased (single-unit
	// workloads).
	steadyCPU time.Duration
	pmu       pmu
	// digest fingerprints the outputs; it must repeat across iterations
	// and match the committed golden digest of the seed, if any.
	digest string
	// violations counts broken counter identities over all units.
	violations int
	// fidelity is the ungated paper-headline number: WCPI of the unit,
	// or the Fig 1 mean relative overhead (%) at each workload's top
	// rung.
	fidelity float64
}

// runIteration runs one iteration of w, recording spans under parent.
// A panic in the simulator comes back as an error.
func runIteration(w workload, seed int64, sp *spans, parent int) (it iteration, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	cpu0 := cpuTime()
	t0 := time.Now()
	if w.campaign() {
		err = runCampaign(w, seed, sp, parent, &it)
	} else {
		err = runUnit(w, seed, sp, parent, &it)
	}
	it.wall = time.Since(t0)
	it.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms)
	it.allocMB = float64(ms.TotalAlloc-alloc0) / (1 << 20)
	return it, err
}

// buildUnit is the single-unit set-up: machine.New plus Spec.Instantiate.
func buildUnit(sys arch.SystemConfig, spec *workloads.Spec, param uint64, ps arch.PageSize, seed int64, sp *spans, parent int) (*machine.Machine, workloads.Instance, error) {
	s := sp.begin("machine.build", parent)
	m, err := machine.New(sys, ps, seed)
	sp.end(s)
	if err != nil {
		return nil, nil, err
	}
	s = sp.begin("workloads.setup", parent)
	inst, err := spec.Instantiate(m, param)
	sp.end(s)
	if err != nil {
		return nil, nil, fmt.Errorf("instantiating %s: %w", spec.Name(), err)
	}
	return m, inst, nil
}

func runUnit(w workload, seed int64, sp *spans, parent int, it *iteration) error {
	spec, err := workloads.ByName(w.spec)
	if err != nil {
		return err
	}
	m, inst, err := buildUnit(arch.DefaultSystem(), spec, w.param, w.pages, seed, sp, parent)
	if err != nil {
		return err
	}
	start, startCycle := m.Counters(), m.CycleCount()
	// The measured region runs on one locked thread, so the thread's CPU
	// clock times it alone: no GC work on the other core, no time the
	// host took the vCPU away.
	runtime.LockOSThread()
	s := sp.begin("workloads.steady", parent)
	c0 := threadCPUTime()
	workloads.RunPhased(m, inst, w.budget)
	it.steadyCPU = threadCPUTime() - c0
	sp.end(s)
	runtime.UnlockOSThread()
	d := perf.Delta(start, m.Counters())

	s = sp.begin("check", parent)
	defer sp.end(s)
	it.violations = checkUnit(w.name, d, startCycle, m.CycleCount())
	it.pmu = pmuOf(d)
	it.digest = digest(d.Format())
	it.fidelity = perf.Compute(d).WCPI
	return nil
}

// checkUnit evaluates every campaign identity on one unit's counter
// delta and returns the number violated.
func checkUnit(name string, d perf.Counters, startCycle, endCycle uint64) int {
	out := core.NewCampaignChecker().CheckUnit(refute.Unit{
		Name:       name,
		StartCycle: startCycle,
		EndCycle:   endCycle,
		Counters:   d,
		Metrics:    perf.Compute(d),
	}, nil)
	return len(out.Violations)
}

// Paths of the attribution-tree nodes the campaign's PMU view reads.
const (
	nodeSTLBHit      = "cycles/translation/tlb_misses/stlb_hit"
	nodeWalks        = "cycles/translation/tlb_misses/walks"
	nodeRetired      = "cycles/translation/tlb_misses/walks/completed/retired"
	nodeWalkerLoads  = "cycles/translation/walker_loads"
	nodeGuestLoadMem = "cycles/translation/walker_loads/guest_loads/memory"
	nodeEPTLoadMem   = "cycles/translation/walker_loads/ept_loads/memory"
)

func runCampaign(w workload, seed int64, sp *spans, parent int, it *iteration) error {
	cfg := core.DefaultRunConfig()
	cfg.System = campaignSystem()
	cfg.Preset = w.preset
	cfg.Budget = w.budget
	cfg.Seed = seed
	cfg.Parallelism = campaignParallelism
	cfg.Refute = core.NewCampaignChecker()
	cfg.Topdown = core.NewTopdownCollector()

	s := sp.begin("core.sweep", parent)
	fig, err := core.Fig1(core.NewSession(cfg))
	sp.end(s)
	if err != nil {
		return err
	}
	s = sp.begin("core.render", parent)
	csv := core.CSV(fig)
	text := fig.Render()
	sp.end(s)

	s = sp.begin("check", parent)
	defer sp.end(s)
	rep := cfg.Refute.Report()
	it.violations = rep.TotalViolations
	want := 0
	for _, spec := range core.PaperWorkloads() {
		want += 3 * len(spec.Sizes(w.preset))
	}
	if rep.Units != want || cfg.Topdown.Units() != want {
		return fmt.Errorf("campaign checked %d units and collected %d, want %d", rep.Units, cfg.Topdown.Units(), want)
	}
	if len(rep.Identities) != len(core.CampaignIdentities()) {
		return fmt.Errorf("campaign report has %d identities, want %d", len(rep.Identities), len(core.CampaignIdentities()))
	}
	if text == "" {
		return fmt.Errorf("empty Fig 1 rendering")
	}

	// Fig1 keeps every unit's derived metrics but raw counters only for
	// the 4 KB units; the campaign tree sums every unit's counters.
	tree := cfg.Topdown.CampaignTree()
	node := func(path string) uint64 {
		n := tree.Lookup(path)
		if n == nil {
			return 0
		}
		return uint64(n.Value)
	}
	p := pmu{
		stlbHits:        node(nodeSTLBHit),
		walks:           node(nodeWalks),
		walkerLoads:     node(nodeWalkerLoads),
		walkerLoadsDRAM: node(nodeGuestLoadMem) + node(nodeEPTLoadMem),
		retiredWalks:    node(nodeRetired),
		units:           uint64(want),
	}
	var top float64
	for _, name := range fig.Workloads {
		pts := fig.ByWorkload[name]
		for _, pt := range pts {
			p.accesses += pt.M4K.Accesses + pt.M2M.Accesses + pt.M1G.Accesses
			p.flushes += pt.C4K.Get(perf.BranchMispredicts) + pt.C4K.Get(perf.MachineClears)
			p.pageFaults += pt.C4K.Get(perf.PageFaults)
		}
		top += pts[len(pts)-1].RelOverhead
	}
	it.pmu = p
	it.fidelity = 100 * top / float64(len(fig.Workloads))
	treeJSON, err := jsonString(tree)
	if err != nil {
		return err
	}
	it.digest = digest(csv, treeJSON)
	return nil
}
