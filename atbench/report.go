package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, perLayer those of a
// traced run; BENCHMARK.json lists the same names.
var endToEnd = []metricDef{
	{"wall_s", "s"}, {"setup_s", "s"}, {"ns_per_access", "ns"},
	{"cpu_s", "s"}, {"max_rss_mb", "MiB"}, {"alloc_mb", "MiB"},
}

var perLayer = []metricDef{
	{"machine.build_s", "s"}, {"workloads.setup_s", "s"}, {"workloads.steady_s", "s"},
	{"core.sweep_s", "s"}, {"core.render_s", "s"},
	{"cache.self_s", "s"}, {"cache.ns_per_access", "ns"},
	{"tlb.self_s", "s"}, {"walker.self_s", "s"}, {"walker.ns_per_walk", "ns"},
	{"cpu.self_s", "s"}, {"rand.self_s", "s"}, {"cpu.ns_per_flush", "ns"},
	{"mem.self_s", "s"}, {"vm.self_s", "s"}, {"machine.self_s", "s"},
	{"workloads.self_s", "s"}, {"core.self_s", "s"}, {"refute.self_s", "s"},
	{"runtime.self_s", "s"}, {"other.self_s", "s"}, {"profile.samples", "count"},
	{"tlb.stlb_hits", "count"}, {"tlb.walks", "count"}, {"walker.loads", "count"},
	{"walker.loads_dram", "count"}, {"walker.retired_frac", "ratio"},
	{"cpu.flushes", "count"}, {"cpu.accesses", "count"}, {"vm.page_faults", "count"},
	{"core.units", "count"}, {"trace.overhead_pct", "%"},
	{"tlb.replay_ns_per_lookup", "ns"}, {"cache.replay_ns_per_access", "ns"},
	{"tlb.replay_miss_frac", "ratio"}, {"cache.replay_l1_hit_frac", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a finished run. The exported fields are the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	w       workload
	seed    int64
	traced  bool
	host    host
	reasons []string

	iters, tracedIters   []iteration
	coldBuild, coldSetup []float64
	// coldCPU is the cold set-ups' summed process CPU seconds.
	coldCPU            float64
	coldFold, iterFold *fold
	spans              *spans
	replay             replayResult
	maxRSS             float64
	artifact           string
}

// metrics computes the run's metrics from its good iterations only: a
// failed iteration is never reported as a timing.
func (r *report) metrics() map[string]float64 {
	v := map[string]float64{}
	if !r.traced {
		var wall, nsAcc, cpu, alloc []float64
		for _, it := range r.iters {
			wall = append(wall, it.wall.Seconds())
			cpu = append(cpu, it.cpu.Seconds())
			alloc = append(alloc, it.allocMB)
			timed := it.steadyCPU
			if r.w.campaign() {
				timed = it.cpu
			}
			nsAcc = append(nsAcc, float64(timed.Nanoseconds())/float64(it.pmu.accesses))
		}
		v["wall_s"], v["setup_s"], v["ns_per_access"] = median(wall), median(r.coldSetup), median(nsAcc)
		v["cpu_s"], v["alloc_mb"], v["max_rss_mb"] = median(cpu), median(alloc), r.maxRSS
		return v
	}

	v["machine.build_s"] = median(r.coldBuild)
	v["workloads.setup_s"] = median(r.coldSetup) - median(r.coldBuild)
	for _, name := range []string{"workloads.steady", "core.sweep", "core.render"} {
		v[name+"_s"] = median(r.spans.seconds(name))
	}

	// Layer self time per unit of work: each row's sample share times
	// the measured CPU seconds of a traced iteration, plus its share of
	// the cold set-ups' profile times the CPU seconds of one set-up.
	var iterCPU float64
	for _, it := range r.tracedIters {
		iterCPU += it.cpu.Seconds()
	}
	if n := len(r.tracedIters); n > 0 {
		iterCPU /= float64(n)
	}
	var coldCPU float64
	if n := len(r.coldSetup); n > 0 {
		coldCPU = r.coldCPU / float64(n)
	}
	for _, l := range layers {
		v[l+".self_s"] = r.iterFold.share(l)*iterCPU + r.coldFold.share(l)*coldCPU
	}
	v["profile.samples"] = float64(r.iterFold.TotalSamples + r.coldFold.TotalSamples)

	var p pmu
	if len(r.tracedIters) > 0 {
		p = r.tracedIters[0].pmu
	}
	per := func(l string, base uint64) float64 {
		if base == 0 {
			return 0
		}
		return r.iterFold.share(l) * iterCPU * 1e9 / float64(base)
	}
	v["cache.ns_per_access"] = per("cache", p.accesses)
	v["walker.ns_per_walk"] = per("walker", p.walks)
	v["cpu.ns_per_flush"] = per("cpu", p.flushes)
	v["tlb.stlb_hits"], v["tlb.walks"] = float64(p.stlbHits), float64(p.walks)
	v["walker.loads"], v["walker.loads_dram"] = float64(p.walkerLoads), float64(p.walkerLoadsDRAM)
	if p.walks > 0 {
		v["walker.retired_frac"] = float64(p.retiredWalks) / float64(p.walks)
	}
	v["cpu.flushes"], v["cpu.accesses"] = float64(p.flushes), float64(p.accesses)
	v["vm.page_faults"], v["core.units"] = float64(p.pageFaults), float64(p.units)

	var plain, traced []float64
	for _, it := range r.iters {
		plain = append(plain, it.wall.Seconds())
	}
	for _, it := range r.tracedIters {
		traced = append(traced, it.wall.Seconds())
	}
	if m := median(plain); m > 0 {
		v["trace.overhead_pct"] = 100 * (median(traced) - m) / m
	}
	v["tlb.replay_ns_per_lookup"] = r.replay.tlbNsPerLookup
	v["cache.replay_ns_per_access"] = r.replay.cacheNsPerAccess
	v["tlb.replay_miss_frac"] = r.replay.tlbMissFrac
	v["cache.replay_l1_hit_frac"] = r.replay.l1HitFrac
	return v
}

// info is the run's metadata: printed on the line before the result
// and stored in the traced run's artifact. Fidelity fields are recorded,
// not scored.
type info struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	Host       host   `json:"host"`
	Iterations int    `json:"iterations"`
	// IterationWall lists every good iteration's wall time in seconds,
	// in run order, so the spread inside a run is on record.
	IterationWall []float64          `json:"iteration_wall_s"`
	ColdSetups    int                `json:"cold_setups"`
	Digest        string             `json:"digest,omitempty"`
	Fidelity      map[string]float64 `json:"fidelity,omitempty"`
	Failures      []string           `json:"failures,omitempty"`
	Artifact      string             `json:"artifact,omitempty"`
}

func (r *report) info() info {
	in := info{
		Workload: r.w.name, Seed: r.seed, Trace: r.traced, Host: r.host,
		Iterations: len(r.iters) + len(r.tracedIters), ColdSetups: len(r.coldSetup),
		Failures: r.reasons, Artifact: r.artifact,
	}
	its := append(append([]iteration(nil), r.iters...), r.tracedIters...)
	for _, it := range its {
		in.IterationWall = append(in.IterationWall, it.wall.Seconds())
	}
	if len(its) > 0 {
		in.Digest = its[0].digest
		key := "wcpi"
		if r.w.campaign() {
			key = "fig1_mean_top_overhead_pct"
		}
		in.Fidelity = map[string]float64{key: its[0].fidelity}
	}
	return in
}

// print writes the info line, then the result line.
func (r *report) print(out io.Writer) error {
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	r.Metrics = map[string]metric{}
	if r.Correct {
		vals := r.metrics()
		for _, d := range defs {
			r.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
		}
	}
	enc := json.NewEncoder(out)
	if err := enc.Encode(map[string]info{"info": r.info()}); err != nil {
		return err
	}
	return enc.Encode(r)
}

// writeArtifact stores the traced run's spans, layer rows and metadata
// as one JSON document.
func (r *report) writeArtifact() error {
	doc := struct {
		Info     info               `json:"info"`
		Written  string             `json:"written"`
		Spans    []span             `json:"spans"`
		IterFold *fold              `json:"iteration_layers"`
		ColdFold *fold              `json:"cold_setup_layers"`
		Metrics  map[string]float64 `json:"metrics"`
	}{r.info(), time.Now().UTC().Format(time.RFC3339), r.spans.list, r.iterFold, r.coldFold, r.metrics()}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(r.artifact, b, 0o644); err != nil {
		return fmt.Errorf("writing trace artifact: %w", err)
	}
	return nil
}
