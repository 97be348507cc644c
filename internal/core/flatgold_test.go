package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"atscale/internal/arch"
	"atscale/internal/refute"
	"atscale/internal/telemetry"
	"atscale/internal/workloads"
	_ "atscale/internal/workloads/all"
)

// The flat-layout goldens lock the simulator's observable outputs —
// counter deltas, exported timelines, and refute reports — across the
// hot-path refactor (direct-indexed physical memory, single-pass
// walker, zero-alloc hierarchies, machine reuse). They were captured
// from the pre-refactor tree and must never change: any optimization
// that shifts a byte here changed the model, not just its speed.
//
// Regenerate (only when the *model* deliberately changes) with:
//
//	UPDATE_FLATGOLD=1 go test ./internal/core -run TestFlatGold
const flatgoldDir = "testdata/flatgold"

// flatgoldCase is one configuration of the differential matrix. It
// deliberately crosses every walker/page-table/policy dimension the
// refactor touches: the radix walker at 4/5 levels, all three page-size
// policies, hashed page tables, nested paging at both EPT leaf sizes,
// WCPI-guided promotion (which exercises machine-internal state the
// quiet path caches), and every translation-scheme backend (victima,
// mitosis and the no-replication radix baseline on two NUMA nodes,
// dramcache).
type flatgoldCase struct {
	name     string
	workload string
	ps       arch.PageSize
	mutate   func(*RunConfig)
}

func flatgoldCases() []flatgoldCase {
	return []flatgoldCase{
		{name: "native-4k", workload: "gups-rand", ps: arch.Page4K},
		{name: "native-2m", workload: "gups-rand", ps: arch.Page2M},
		{name: "native-1g", workload: "uniform-synth", ps: arch.Page1G},
		{name: "lvl5", workload: "stride-synth", ps: arch.Page4K,
			mutate: func(c *RunConfig) { c.System.PagingLevels = 5 }},
		{name: "hashed", workload: "mcf-rand", ps: arch.Page4K,
			mutate: func(c *RunConfig) { c.System.PageTable = "hashed" }},
		{name: "virt-ept4k", workload: "gups-rand", ps: arch.Page4K,
			mutate: func(c *RunConfig) { c.System = virtualize(c.System, arch.Page4K) }},
		{name: "virt-ept2m", workload: "zipf-synth", ps: arch.Page4K,
			mutate: func(c *RunConfig) { c.System = virtualize(c.System, arch.Page2M) }},
		{name: "promo", workload: "gups-rand", ps: arch.Page4K,
			mutate: func(c *RunConfig) { c.EnablePromotion = true }},
		{name: "sampling", workload: "stride-synth", ps: arch.Page4K,
			mutate: func(c *RunConfig) {
				c.SamplePeriod = refuteSamplePeriod
				c.SampleBuffer = refuteSampleRing
			}},
		{name: "scheme-victima", workload: "mcf-rand", ps: arch.Page4K,
			mutate: func(c *RunConfig) { c.System.Scheme = "victima" }},
		{name: "scheme-mitosis", workload: "gups-rand", ps: arch.Page4K,
			mutate: func(c *RunConfig) { numaScheme(c, "mitosis") }},
		{name: "scheme-dramcache", workload: "mcf-rand", ps: arch.Page4K,
			mutate: func(c *RunConfig) { c.System.Scheme = "dramcache" }},
		{name: "scheme-radix-numa2", workload: "gups-rand", ps: arch.Page4K,
			mutate: func(c *RunConfig) { numaScheme(c, "radix") }},
	}
}

// numaScheme puts a case on two NUMA nodes under the named scheme, with
// migrations frequent enough that walks run on both nodes inside the
// measured region.
func numaScheme(c *RunConfig, name string) {
	c.System.Scheme = name
	c.System.NUMA.Nodes = 2
	c.System.NUMA.MigrateEvery = 5_000
}

// flatgoldCounters renders one case's full result as a stable text
// dump: the unit name plus every counter (zeros included, so event
// reordering or a newly-missing increment cannot hide).
func flatgoldCounters(t *testing.T, c flatgoldCase) string {
	t.Helper()
	cfg := testConfig()
	cfg.Budget = 60_000
	if c.mutate != nil {
		c.mutate(&cfg)
	}
	spec := mustSpec(t, c.workload)
	r, err := Run(&cfg, spec, spec.Ladder[0], c.ps)
	if err != nil {
		t.Fatalf("flatgold %s: %v", c.name, err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "unit: %s\n", unitName(&cfg, spec, spec.Ladder[0], c.ps))
	fmt.Fprintf(&b, "footprint: %d\n", r.Footprint)
	fmt.Fprintf(&b, "samples: %d dropped: %d droppedWeight: %d\n",
		len(r.Samples), r.SampleDropped, r.SampleDroppedWeight)
	b.WriteString(r.Counters.Format())
	return b.String()
}

// flatgoldTimeline exports the traced wcpi campaign (the same campaign
// the timeline determinism tests run) as the timeline golden.
func flatgoldTimeline(t *testing.T) []byte {
	t.Helper()
	return timelineCampaign(t, 1)
}

// flatgoldRefute runs a two-variant identity sweep (native + nested
// paging) and returns the checker's deterministic JSON report.
func flatgoldRefute(t *testing.T) []byte {
	t.Helper()
	checker := refute.NewChecker()
	cfg := testConfig()
	cfg.Budget = 40_000
	cfg.Refute = checker
	spec := mustSpec(t, "uniform-synth")
	if _, err := SweepOverhead(&cfg, spec); err != nil {
		t.Fatal(err)
	}
	vcfg := testConfig()
	vcfg.Budget = 40_000
	vcfg.Refute = checker
	vcfg.UnitTag = " @virt"
	vcfg.System = virtualize(vcfg.System, arch.Page2M)
	if _, err := Run(&vcfg, spec, spec.Ladder[0], arch.Page4K); err != nil {
		t.Fatal(err)
	}
	return checker.Report().JSON()
}

// flatgoldCompare asserts got matches the committed golden, or rewrites
// the golden when UPDATE_FLATGOLD=1.
func flatgoldCompare(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join(flatgoldDir, name)
	if os.Getenv("UPDATE_FLATGOLD") != "" {
		if err := os.MkdirAll(flatgoldDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with UPDATE_FLATGOLD=1 to create): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: output differs from pre-refactor golden (%d vs %d bytes)\n"+
			"the hot-path refactor must be byte-identical; diff the file to find the drift",
			name, len(got), len(want))
		diffPath := path + ".got"
		if err := os.WriteFile(diffPath, got, 0o644); err == nil {
			t.Logf("wrote divergent output to %s", diffPath)
		}
	}
}

// TestFlatGoldCounters locks the per-unit counter deltas across the
// configuration matrix.
func TestFlatGoldCounters(t *testing.T) {
	for _, c := range flatgoldCases() {
		t.Run(c.name, func(t *testing.T) {
			flatgoldCompare(t, "counters-"+c.name+".txt", []byte(flatgoldCounters(t, c)))
		})
	}
}

// TestFlatGoldTimeline locks the exported campaign timeline bytes. The
// export is ~11 MB, so the golden stores its SHA-256 plus the length:
// that still pins every byte without committing megabytes of JSON.
func TestFlatGoldTimeline(t *testing.T) {
	data := flatgoldTimeline(t)
	if _, err := telemetry.Validate(data); err != nil {
		t.Fatalf("timeline invalid before comparison: %v", err)
	}
	sum := sha256.Sum256(data)
	digest := fmt.Sprintf("sha256:%x len:%d\n", sum, len(data))
	flatgoldCompare(t, "timeline.sha256", []byte(digest))
}

// TestFlatGoldRefute locks the refute checker's JSON report over a
// native sweep plus a nested-paging unit.
func TestFlatGoldRefute(t *testing.T) {
	flatgoldCompare(t, "refute.json", flatgoldRefute(t))
}

// TestFlatGoldCampaign locks the campaign artifact of the overhead
// sweep: every point's derived numbers in ladder order, exactly the
// dataset the figure pipeline consumes.
func TestFlatGoldCampaign(t *testing.T) {
	cfg := testConfig()
	cfg.Budget = 40_000
	spec := mustSpec(t, "stride-synth")
	pts, err := SweepOverhead(&cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("workload,param,footprint,cpi4k,cpi2m,cpi1g,reloverhead,wcpi4k\n")
	for _, p := range pts {
		fmt.Fprintf(&b, "%s,%d,%d,%.9g,%.9g,%.9g,%.9g,%.9g\n",
			p.Workload, p.Param, p.Footprint,
			p.CPI4K, p.CPI2M, p.CPI1G, p.RelOverhead, p.M4K.WCPI)
	}
	flatgoldCompare(t, "campaign-stride.csv", []byte(b.String()))
}

var _ = workloads.Tiny // keep the import pinned alongside testConfig
