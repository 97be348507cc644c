package graph

import (
	"sync/atomic"
	"testing"
)

// TestEdgeStreamAt pins the edge-stream jump each CSR worker starts
// from: at(i) must yield exactly the edges that follow i calls of next.
func TestEdgeStreamAt(t *testing.T) {
	for _, gen := range []string{"urand", "kron"} {
		for _, i := range []uint64{0, 1, 2, 1000} {
			walked := newEdgeStream(gen, 12)
			for j := uint64(0); j < i; j++ {
				walked.next()
			}
			jumped := newEdgeStream(gen, 12).at(i)
			for j := 0; j < 4; j++ {
				wu, wv := walked.next()
				ju, jv := jumped.next()
				if wu != ju || wv != jv {
					t.Fatalf("%s at(%d): edge %d is (%d,%d), want (%d,%d)", gen, i, j, ju, jv, wu, wv)
				}
			}
		}
	}
}

// TestWorkerCountAgreement holds the parallel set-up to its contract: the
// plain and degree-relabelled CSRs are byte-identical whatever the worker
// count, including one above the builder's m/n cap.
func TestWorkerCountAgreement(t *testing.T) {
	const scale = 13
	n := uint64(1) << scale
	for _, gen := range []string{"urand", "kron"} {
		var want [2]string
		for _, workers := range []int{1, 2, 3, 5, 64} {
			h := buildHostCSR(n, degree*n, newEdgeStream(gen, scale), workers)
			got := [2]string{csrDigest(h), csrDigest(h.relabel(workers))}
			if workers == 1 {
				want = got
				continue
			}
			for i, name := range []string{"plain", "relabelled"} {
				if got[i] != want[i] {
					t.Errorf("%s-%d %s with %d workers: digest %s, one worker %s",
						gen, scale, name, workers, got[i], want[i])
				}
			}
		}
	}
}

// TestForkJoinReraisesWorkerPanic checks a worker's panic surfaces on the
// calling goroutine, where a recover can contain it, only after every
// other worker has finished.
func TestForkJoinReraisesWorkerPanic(t *testing.T) {
	for _, workers := range []int{1, 3} {
		var finished atomic.Int32
		got := func() (r any) {
			defer func() { r = recover() }()
			forkJoin(workers, func(w int) {
				if w == workers-1 {
					panic("worker failed")
				}
				finished.Add(1)
			})
			return nil
		}()
		if got != "worker failed" {
			t.Errorf("%d workers: recovered %v, want the worker's panic", workers, got)
		}
		if n := finished.Load(); n != int32(workers-1) {
			t.Errorf("%d workers: %d others finished before the re-raise, want %d", workers, n, workers-1)
		}
	}
}

// TestCachedBuildPanicNotMemoized checks a build that panics leaves its
// key unbuilt: the panic reaches the caller, and the next caller builds
// instead of receiving an empty CSR.
func TestCachedBuildPanicNotMemoized(t *testing.T) {
	key := "test-" + t.Name()
	t.Cleanup(func() {
		genMu.Lock()
		delete(genCache, key)
		genMu.Unlock()
	})
	func() {
		defer func() {
			if r := recover(); r != "build failed" {
				t.Errorf("first build: recovered %v, want its panic", r)
			}
		}()
		cached(key, func() hostCSR { panic("build failed") })
	}()
	if h := cached(key, func() hostCSR { return hostCSR{n: 3} }); h.n != 3 {
		t.Fatalf("after a failed build: got a CSR of %d vertices, want a rebuilt one of 3", h.n)
	}
	h := cached(key, func() hostCSR {
		t.Error("a successful build was not memoized")
		return hostCSR{}
	})
	if h.n != 3 {
		t.Errorf("memoized CSR has %d vertices, want 3", h.n)
	}
}
