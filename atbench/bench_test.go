package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"

	"atscale/internal/arch"
	"atscale/internal/perf"
	"atscale/internal/workloads"
)

// Short-budget stand-ins for the benchmark workloads.
var (
	smokeUnit     = workload{name: "smoke-unit", spec: "gups-rand", param: 20, pages: arch.Page4K, budget: 200_000}
	smokeCampaign = workload{name: "smoke-campaign", budget: 2_000, preset: workloads.Tiny}
)

func smokeBench(t *testing.T, w workload, traced bool, golden string) *report {
	t.Helper()
	b := &bench{w: w, seed: 3, traced: traced, coldRuns: 1, minIters: 2,
		cold: coldRun, outDir: t.TempDir(), golden: golden}
	return b.run()
}

// printed runs r.print and decodes its last line.
func printed(t *testing.T, r *report) map[string]json.RawMessage {
	t.Helper()
	var buf bytes.Buffer
	if err := r.print(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var out map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func metricNames(t *testing.T, raw json.RawMessage) []string {
	t.Helper()
	var ms map[string]metric
	if err := json.Unmarshal(raw, &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for n := range ms {
		names = append(names, n)
	}
	return names
}

func defNames(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name)
	}
	return out
}

func sameSet(a, b []string) bool {
	m := map[string]int{}
	for _, x := range a {
		m[x]++
	}
	for _, x := range b {
		m[x]--
	}
	for _, v := range m {
		if v != 0 {
			return false
		}
	}
	return len(a) == len(b)
}

func TestBenchmarkJSONNamesMatchCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []named, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d, code %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %v, code %v", what, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	var ws []string
	for _, w := range spec.Workloads {
		ws = append(ws, w.Name)
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(ws) != len(benchWorkloads) {
		t.Errorf("BENCHMARK.json workloads %v, code has %d", ws, len(benchWorkloads))
	}
}

func TestSmokeUntracedReportsEndToEndMetrics(t *testing.T) {
	for _, w := range []workload{smokeUnit, smokeCampaign} {
		r := smokeBench(t, w, false, "")
		if !r.Correct || r.Failed != 0 {
			t.Fatalf("%s: correct=%v failed=%d: %v", w.name, r.Correct, r.Failed, r.reasons)
		}
		out := printed(t, r)
		var keys []string
		for k := range out {
			keys = append(keys, k)
		}
		if !sameSet(keys, []string{"correct", "attempted", "failed", "metrics"}) {
			t.Errorf("%s: result keys %v", w.name, keys)
		}
		if got := metricNames(t, out["metrics"]); !sameSet(got, defNames(endToEnd)) {
			t.Errorf("%s: metrics %v, want %v", w.name, got, defNames(endToEnd))
		}
		for _, d := range endToEnd {
			if r.Metrics[d.name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, d.name, r.Metrics[d.name].Value)
			}
		}
	}
}

func TestSmokeTracedFoldsEverySample(t *testing.T) {
	r := smokeBench(t, smokeUnit, true, "")
	if !r.Correct {
		t.Fatalf("correct=false: %v", r.reasons)
	}
	out := printed(t, r)
	if got := metricNames(t, out["metrics"]); !sameSet(got, defNames(perLayer)) {
		t.Errorf("metrics %v, want %v", got, defNames(perLayer))
	}
	if r.iterFold.TotalSamples == 0 {
		t.Fatal("traced iterations collected no profile samples")
	}
	for _, f := range []*fold{r.iterFold, r.coldFold} {
		if n := f.rowSum(); n != f.TotalSamples {
			t.Errorf("rows hold %d of %d samples", n, f.TotalSamples)
		}
		for l := range f.Samples {
			if !contains(layers, l) {
				t.Errorf("sample credited to unknown row %q", l)
			}
		}
	}
	if r.Metrics["cpu.accesses"].Value < float64(smokeUnit.budget) {
		t.Errorf("cpu.accesses = %v, want >= budget", r.Metrics["cpu.accesses"].Value)
	}
	if f := r.Metrics["tlb.replay_miss_frac"].Value; f <= 0 || f >= 1 {
		t.Errorf("tlb.replay_miss_frac = %v", f)
	}
	if _, err := os.Stat(r.artifact); err != nil {
		t.Errorf("trace artifact: %v", err)
	}
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

func TestCorruptGoldenFailsTheRun(t *testing.T) {
	r := smokeBench(t, smokeUnit, false, strings.Repeat("0", 64))
	if r.Correct || r.Failed == 0 || r.Failed > r.Attempted {
		t.Fatalf("corrupt golden: correct=%v failed=%d attempted=%d", r.Correct, r.Failed, r.Attempted)
	}
	out := printed(t, r)
	if got := metricNames(t, out["metrics"]); len(got) != 0 {
		t.Errorf("failed run reported timings %v", got)
	}
	if string(out["correct"]) != "false" {
		t.Errorf("correct = %s", out["correct"])
	}
}

func TestGoldenDigestsRepeat(t *testing.T) {
	g, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range benchWorkloads {
		if len(g[w.name]) == 0 {
			t.Errorf("no golden digests recorded for %s", w.name)
		}
	}
	a, err := runIteration(smokeUnit, 5, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runIteration(smokeUnit, 5, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	if a.digest != b.digest || a.violations != 0 {
		t.Errorf("digests %s / %s, violations %d", a.digest, b.digest, a.violations)
	}
}

func TestIdentityViolationFailsTheGate(t *testing.T) {
	spec, err := workloads.ByName(smokeUnit.spec)
	if err != nil {
		t.Fatal(err)
	}
	m, inst, err := buildUnit(arch.DefaultSystem(), spec, smokeUnit.param, smokeUnit.pages, 1, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	start := m.Counters()
	workloads.RunPhased(m, inst, smokeUnit.budget)
	d := perf.Delta(start, m.Counters())
	if v := checkUnit("clean", d, 0, d.Get(perf.Cycles)); v != 0 {
		t.Fatalf("clean unit: %d violations", v)
	}
	// More completed walks than initiated ones breaks the walk ladder.
	d.Add(perf.DTLBLoadWalkCompleted, d.Get(perf.DTLBLoadMissWalk)+1)
	v := checkUnit("corrupt", d, 0, d.Get(perf.Cycles))
	if v == 0 {
		t.Fatal("corrupted counters broke no identity")
	}
	g := &gate{}
	if g.check(iteration{digest: "d", violations: v}, nil) || g.failed != 1 {
		t.Error("gate admitted an iteration with identity violations")
	}
}

func TestGateFailures(t *testing.T) {
	g := &gate{golden: "good"}
	if !g.check(iteration{digest: "good"}, nil) {
		t.Fatal("gate refused a good iteration")
	}
	if g.check(iteration{digest: "good"}, errors.New("panic: boom")) {
		t.Error("gate admitted an iteration that returned an error")
	}
	if g.check(iteration{digest: "other"}, nil) {
		t.Error("gate admitted a digest that differs from the golden")
	}
	g = &gate{}
	g.check(iteration{digest: "a"}, nil)
	if g.check(iteration{digest: "b"}, nil) {
		t.Error("gate admitted a digest that differs from the run's first")
	}
	if g.attempted != 2 || g.failed != 1 {
		t.Errorf("attempted=%d failed=%d", g.attempted, g.failed)
	}
}

func TestLayerOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"sort.insertionSort", "sort.Slice", "atscale/internal/workloads/graph.generateUncached"}, "workloads"},
		{[]string{"math/rand.(*Rand).Float64", "atscale/internal/cpu.(*Core).wrongPathVA"}, "rand"},
		{[]string{"runtime.mallocgc", "atscale/internal/workloads.NewArray"}, "runtime"},
		{[]string{"atscale/internal/scheme.(*radix).Walk", "atscale/internal/cpu.(*Core).access"}, "walker"},
		{[]string{"atscale/internal/pagetable.(*Table).Lookup"}, "vm"},
		{[]string{"atscale/internal/topdown.eval"}, "refute"},
		{[]string{"atscale/internal/perf.Compute", "main.runUnit"}, "other"},
		{[]string{"crypto/sha256.block", "main.digest", "runtime.main"}, "other"},
		{[]string{"syscall.Syscall"}, "other"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestParseSeeds(t *testing.T) {
	got, err := parseSeeds("3-5")
	if err != nil || !reflect.DeepEqual(got, []int64{3, 4, 5}) {
		t.Errorf("parseSeeds(3-5) = %v, %v", got, err)
	}
	if _, err := parseSeeds("5-3"); err == nil {
		t.Error("parseSeeds(5-3) accepted a descending range")
	}
}
