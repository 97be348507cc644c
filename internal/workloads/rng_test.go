package workloads

import "testing"

// TestRNGSkip pins the jump-ahead the parallel input builders start their
// workers with: Skip(k) must land exactly where k Next calls do.
func TestRNGSkip(t *testing.T) {
	for _, seed := range []uint64{0, 1, 0xDEADBEEF} {
		for _, k := range []uint64{0, 1, 2, 1000} {
			walked, jumped := NewRNG(seed), NewRNG(seed)
			for i := uint64(0); i < k; i++ {
				walked.Next()
			}
			jumped.Skip(k)
			for i := 0; i < 4; i++ {
				if a, b := walked.Next(), jumped.Next(); a != b {
					t.Fatalf("seed %d, Skip(%d): draw %d is %#x, want %#x", seed, k, i, b, a)
				}
			}
		}
	}
}
