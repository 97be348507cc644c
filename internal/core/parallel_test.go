package core

import (
	"bytes"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atscale/internal/workloads"
	_ "atscale/internal/workloads/all"
)

// parallelTestConfig is testConfig with a lower budget: the determinism
// tests below run full campaigns twice.
func parallelTestConfig(parallelism int) RunConfig {
	cfg := testConfig()
	cfg.Budget = 60_000
	cfg.Parallelism = parallelism
	return cfg
}

// TestParallelSweepAllMatchesSerial is the scheduler's core contract: a
// campaign at Parallelism 8 renders byte-identical tables and CSV to the
// same campaign at Parallelism 1.
func TestParallelSweepAllMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign comparison")
	}
	run := func(parallelism int) (string, string) {
		s := NewSession(parallelTestConfig(parallelism))
		r, err := Fig1(s)
		if err != nil {
			t.Fatal(err)
		}
		return r.Render(), CSV(r)
	}
	serialText, serialCSV := run(1)
	parallelText, parallelCSV := run(8)
	if serialText != parallelText {
		t.Errorf("parallel render differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serialText, parallelText)
	}
	if serialCSV != parallelCSV {
		t.Errorf("parallel CSV differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serialCSV, parallelCSV)
	}
}

// TestParallelXSweepMatchesSerial covers the extension-sweep scheduler
// path (two page sizes per unit, multiple workloads).
func TestParallelXSweepMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign comparison")
	}
	run := func(parallelism int) string {
		s := NewSession(parallelTestConfig(parallelism))
		r, err := XSweep(s)
		if err != nil {
			t.Fatal(err)
		}
		return r.Render()
	}
	if serial, parallel := run(1), run(8); serial != parallel {
		t.Errorf("parallel xsweep differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

// TestConcurrentExperimentsSingleflight dispatches experiments that share
// the bc-urand sweep concurrently and checks the session measured it
// exactly once.
func TestConcurrentExperimentsSingleflight(t *testing.T) {
	var log bytes.Buffer
	cfg := parallelTestConfig(4)
	cfg.Log = &log
	s := NewSession(cfg)

	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i, id := range []string{"fig5", "fig10", "table6"} {
		exp, err := ExperimentByID(id)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, exp Experiment) {
			defer wg.Done()
			_, errs[i] = exp.Run(s)
		}(i, exp)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("experiment %d: %v", i, err)
		}
	}
	if n := strings.Count(log.String(), "sweeping bc-urand"); n != 1 {
		t.Errorf("bc-urand swept %d times, want 1 (singleflight)\nlog:\n%s", n, log.String())
	}
	wantRuns := len(mustSpec(t, "bc-urand").Sizes(workloads.Tiny)) * 3
	if n := strings.Count(log.String(), "run bc-urand"); n != wantRuns {
		t.Errorf("bc-urand ran %d units, want %d", n, wantRuns)
	}
}

// TestConcurrentSameSweepShares has many goroutines request one sweep;
// all must get the single memoized result.
func TestConcurrentSameSweepShares(t *testing.T) {
	s := NewSession(parallelTestConfig(4))
	const callers = 8
	results := make([][]OverheadPoint, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			pts, err := s.Sweep("stride-synth")
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = pts
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if len(results[i]) == 0 || &results[i][0] != &results[0][0] {
			t.Fatalf("caller %d got a different sweep slice", i)
		}
	}
}

// TestSweepErrorCancelsPool: a failing run unit (hashed page tables
// reject 2MB/1GB policies) must abort the sweep promptly — error out, no
// deadlock, no panic.
func TestSweepErrorCancelsPool(t *testing.T) {
	cfg := parallelTestConfig(8)
	cfg.System.PageTable = "hashed"
	spec := mustSpec(t, "stride-synth")

	done := make(chan error, 1)
	go func() {
		_, err := SweepOverhead(&cfg, spec)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("sweep with failing units returned nil error")
		}
		if !strings.Contains(err.Error(), "hashed page tables") {
			t.Errorf("unexpected error: %v", err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("sweep deadlocked after unit error")
	}
}

// TestForEachUnitBound checks the pool never runs more units at once
// than the configured parallelism.
func TestForEachUnitBound(t *testing.T) {
	cfg := RunConfig{Parallelism: 3}
	var cur, max, calls atomic.Int64
	err := forEachUnit(&cfg, 24, func(i int) error {
		n := cur.Add(1)
		for {
			m := max.Load()
			if n <= m || max.CompareAndSwap(m, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		cur.Add(-1)
		calls.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 24 {
		t.Errorf("ran %d units, want 24", calls.Load())
	}
	if max.Load() > 3 {
		t.Errorf("observed %d concurrent units, bound is 3", max.Load())
	}
}

// TestForEachUnitFirstError: an early error skips not-yet-started units
// and is the error returned.
func TestForEachUnitFirstError(t *testing.T) {
	cfg := RunConfig{Parallelism: 2}
	var ran atomic.Int64
	err := forEachUnit(&cfg, 64, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return errUnit
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != errUnit {
		t.Fatalf("err = %v, want errUnit", err)
	}
	// Cancellation is best-effort (in-flight units drain), but the vast
	// majority of the 64 units must have been skipped.
	if n := ran.Load(); n > 32 {
		t.Errorf("%d units ran after first error, expected most of 64 to be cancelled", n)
	}
}

// TestForEachUnitStartsInIndexOrder: the scheduler hands out pool slots
// in index order, so under Parallelism 2 unit 0 is among the first two
// units entered — no unit past index 1 starts before it. Unit 1 waits
// for unit 0, so no slot frees before unit 0 is in. Spawning every unit
// up front and letting them race for slots started unit 0 behind others,
// which is what let TestForEachUnitFirstError run more than half its
// units; the trials make that interleaving show.
func TestForEachUnitStartsInIndexOrder(t *testing.T) {
	for trial := 0; trial < 100; trial++ {
		cfg := RunConfig{Parallelism: 2}
		unit0 := make(chan struct{})
		var early atomic.Int64 // units past index 1 that entered before unit 0
		err := forEachUnit(&cfg, 64, func(i int) error {
			switch {
			case i == 0:
				close(unit0)
			case i == 1:
				<-unit0
			default:
				select {
				case <-unit0:
				default:
					early.Add(1)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n := early.Load(); n > 0 {
			t.Fatalf("trial %d: %d units past index 1 entered before unit 0", trial, n)
		}
	}
}

var errUnit = &unitError{}

type unitError struct{}

func (*unitError) Error() string { return "unit failed" }

// TestSerialScheduleUnchanged: Parallelism 1 runs units in index order on
// the calling goroutine (the pre-scheduler behaviour experiments' log
// output depends on).
func TestSerialScheduleUnchanged(t *testing.T) {
	cfg := RunConfig{Parallelism: 1}
	var order []int
	err := forEachUnit(&cfg, 5, func(i int) error {
		order = append(order, i) // no lock: serial path must not spawn
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order = %v", order)
		}
	}
}
