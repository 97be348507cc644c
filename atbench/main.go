// Command atbench is atscale's benchmark. It runs one named workload per
// process and prints, as the last line of standard output, one JSON
// object with the run's correctness verdict and its metrics:
//
//	bash atbench/run.sh --workload bfs-2m --seed 1 --seconds 40 --trace 0
//
// With --trace 0 it reports the end-to-end host costs (wall, set-up, ns
// per simulated access, CPU, peak RSS, heap allocation). With --trace 1
// it makes a separate traced run of the same workload and seed and
// reports the per-layer split: spans around its calls into machine,
// workloads and core, a CPU profile folded by layer, the simulated PMU
// deltas the ratios divide by, and replay kernels for the TLB and cache
// arrays. NOTES.md describes the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"atscale/internal/arch"
	"atscale/internal/core"
	"atscale/internal/workloads"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("atbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: bfs-2m or fig1-campaign")
	seed := fs.Int64("seed", 1, "simulated machine seed")
	seconds := fs.Int("seconds", 10, "length of the measured loop in seconds")
	traced := fs.Int("trace", 0, "1 makes a traced run that reports the per-layer metrics")
	recordPath := fs.String("record", "", "write the digests of -seeds into this golden file and exit")
	seedRange := fs.String("seeds", "", "seed range FIRST-LAST for -record")
	cold := fs.Bool("cold-setup", false, "run one cold set-up and print its times (the parent spawns this)")
	profOut := fs.String("profile", "", "with -cold-setup: write a CPU profile here")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err == nil && *traced != 0 && *traced != 1 {
		err = fmt.Errorf("-trace must be 0 or 1, got %d", *traced)
	}
	if err != nil {
		fmt.Fprintln(stderr, "atbench:", err)
		return 2
	}
	switch {
	case *cold:
		res, err := coldRun(w, *seed, *profOut)
		if err == nil {
			err = json.NewEncoder(stdout).Encode(res)
		}
		if err != nil {
			fmt.Fprintln(stderr, "atbench: cold set-up:", err)
			return 1
		}
		return 0
	case *recordPath != "":
		seeds, err := parseSeeds(*seedRange)
		if err == nil {
			err = record(w, seeds, *recordPath)
		}
		if err != nil {
			fmt.Fprintln(stderr, "atbench: record:", err)
			return 1
		}
		return 0
	}
	g, err := loadGoldens()
	if err != nil {
		fmt.Fprintln(stderr, "atbench:", err)
		return 1
	}
	golden, _ := g.lookup(w.name, *seed)
	out := os.Getenv("ATBENCH_OUT")
	if out == "" {
		out = filepath.Join(".bench_build", "atbench")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		fmt.Fprintln(stderr, "atbench:", err)
		return 1
	}
	b := &bench{
		w: w, seed: *seed, seconds: *seconds, traced: *traced == 1,
		coldRuns: 5, minIters: 3, cold: spawnCold, outDir: out, golden: golden,
	}
	rep := b.run()
	if err := rep.print(stdout); err != nil {
		fmt.Fprintln(stderr, "atbench:", err)
		return 1
	}
	for _, r := range rep.reasons {
		fmt.Fprintln(stderr, "atbench: FAILED:", r)
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

func parseSeeds(s string) ([]int64, error) {
	lo, hi, ok := strings.Cut(s, "-")
	if !ok {
		hi = lo
	}
	a, err := strconv.ParseInt(lo, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("bad -seeds %q", s)
	}
	z, err := strconv.ParseInt(hi, 10, 64)
	if err != nil || z < a {
		return nil, fmt.Errorf("bad -seeds %q", s)
	}
	var out []int64
	for i := a; i <= z; i++ {
		out = append(out, i)
	}
	return out, nil
}

// bench is one run of one workload.
type bench struct {
	w       workload
	seed    int64
	seconds int
	traced  bool
	// coldRuns is the number of cold set-ups; minIters the least number
	// of measured iterations, however short the loop.
	coldRuns, minIters int
	// cold performs one cold set-up, writing a CPU profile to profile
	// when it is not empty. The command spawns a child process of
	// itself, so graph generation and every other process-wide cache
	// start cold; tests pass an in-process function.
	cold   func(w workload, seed int64, profile string) (coldResult, error)
	outDir string
	golden string
}

// coldResult is one cold set-up: its spans, with times in Unix
// nanoseconds, and the process CPU seconds it took.
type coldResult struct {
	Spans []span  `json:"spans"`
	CPU   float64 `json:"cpu_s"`
}

func (c coldResult) seconds(name string) float64 {
	var t float64
	for _, d := range durations(c.Spans, name) {
		t += d
	}
	return t
}

// coldSetup builds w's inputs once: machine.New plus Spec.Instantiate
// for the single unit, or for every Fig 1 input (Table I workloads at
// the preset's rungs, 4 KB pages) for the campaign.
func coldSetup(w workload, seed int64) (coldResult, error) {
	sp := newSpans(time.Unix(0, 0))
	root := sp.begin("setup.cold", -1)
	cpu0 := cpuTime()
	if w.campaign() {
		for _, spec := range core.PaperWorkloads() {
			for _, p := range spec.Sizes(w.preset) {
				if _, _, err := buildUnit(campaignSystem(), spec, p, arch.Page4K, seed, sp, root); err != nil {
					return coldResult{}, err
				}
			}
		}
	} else {
		spec, err := workloads.ByName(w.spec)
		if err != nil {
			return coldResult{}, err
		}
		if _, _, err := buildUnit(arch.DefaultSystem(), spec, w.param, w.pages, seed, sp, root); err != nil {
			return coldResult{}, err
		}
	}
	sp.end(root)
	return coldResult{Spans: sp.list, CPU: (cpuTime() - cpu0).Seconds()}, nil
}

// coldRun makes one cold set-up, profiling it into the file profile
// when that is not empty.
func coldRun(w workload, seed int64, profile string) (coldResult, error) {
	if profile == "" {
		return coldSetup(w, seed)
	}
	var buf bytes.Buffer
	if err := startProfile(&buf); err != nil {
		return coldResult{}, err
	}
	res, err := coldSetup(w, seed)
	pprof.StopCPUProfile()
	if err != nil {
		return coldResult{}, err
	}
	return res, os.WriteFile(profile, buf.Bytes(), 0o644)
}

// spawnCold runs one cold set-up in a child process and waits for it.
func spawnCold(w workload, seed int64, profile string) (coldResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return coldResult{}, err
	}
	args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10), "-cold-setup"}
	if profile != "" {
		args = append(args, "-profile", profile)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return coldResult{}, fmt.Errorf("cold set-up child: %w", err)
	}
	var res coldResult
	if err := json.Unmarshal(out, &res); err != nil {
		return coldResult{}, fmt.Errorf("cold set-up child output: %w", err)
	}
	return res, nil
}

// run makes the cold set-ups, then iterates w for the configured
// seconds. A traced run alternates untraced and traced (spanned and
// profiled) iterations, then records and replays one access stream.
func (b *bench) run() *report {
	var sp *spans
	if b.traced {
		sp = newSpans(time.Now())
	}
	root := sp.begin("run", -1)
	g := &gate{golden: b.golden}
	rep := &report{w: b.w, seed: b.seed, traced: b.traced, host: fingerprint()}

	coldFold, iterFold := newFold(), newFold()
	for i := 0; i < b.coldRuns; i++ {
		prof := ""
		if b.traced {
			prof = filepath.Join(b.outDir, fmt.Sprintf("%s-cold%d.pprof", b.w.name, i))
		}
		c, err := b.cold(b.w, b.seed, prof)
		if err == nil && prof != "" {
			var data []byte
			if data, err = os.ReadFile(prof); err == nil {
				err = coldFold.add(data)
			}
		}
		g.failure(err)
		if err != nil {
			continue
		}
		rep.coldCPU += c.CPU
		rep.coldBuild = append(rep.coldBuild, c.seconds("machine.build"))
		rep.coldSetup = append(rep.coldSetup, c.seconds("machine.build")+c.seconds("workloads.setup"))
		ids := map[int]int{-1: root}
		for _, s := range c.Spans {
			ids[s.ID] = sp.add(s.Name, ids[s.Parent], s.Start, s.End)
		}
	}

	deadline := time.Now().Add(time.Duration(b.seconds) * time.Second)
	for i := 0; i < b.minIters || time.Now().Before(deadline); i++ {
		traced := b.traced && i%2 == 1
		var isp *spans
		parent := -1
		var prof bytes.Buffer
		if traced {
			isp = sp
			parent = sp.begin("iteration", root)
			if err := startProfile(&prof); err != nil {
				g.failure(err)
				break
			}
		}
		it, err := runIteration(b.w, b.seed, isp, parent)
		if traced {
			pprof.StopCPUProfile()
			sp.end(parent)
			if err == nil {
				err = iterFold.add(prof.Bytes())
			}
		}
		if !g.check(it, err) {
			continue
		}
		if traced {
			rep.tracedIters = append(rep.tracedIters, it)
		} else {
			rep.iters = append(rep.iters, it)
		}
	}

	if b.traced {
		rs := sp.begin("replay", root)
		refs, sys, err := recordStream(b.w, b.seed, sp, rs)
		g.failure(err)
		if err == nil {
			rep.replay = replayKernels(refs, sys, sp, rs)
		}
		sp.end(rs)
	}
	sp.end(root)
	rep.coldFold, rep.iterFold, rep.spans = coldFold, iterFold, sp
	rep.Attempted, rep.Failed, rep.reasons = g.attempted, g.failed, g.reasons
	rep.Correct = g.failed == 0 && len(rep.iters)+len(rep.tracedIters) > 0 &&
		(!b.traced || len(rep.tracedIters) > 0 && len(rep.iters) > 0)
	rep.maxRSS = maxRSSMB()
	if b.traced && rep.Correct {
		rep.artifact = filepath.Join(b.outDir, fmt.Sprintf("%s-seed%d.trace.json", b.w.name, b.seed))
		if err := rep.writeArtifact(); err != nil {
			rep.Failed++
			rep.Correct = false
			rep.reasons = append(rep.reasons, err.Error())
		}
	}
	return rep
}
